"""Per-layer tracing from outside the program: spans around public calls.

The benchmark times the simulator's layers without changing a file under
``src/``: :func:`instrument` replaces public functions of each layer with
wrappers that open and close spans, then restores them.  A synchronous
call is one span.  A generator function (a simulation process body such
as ``Endorser.endorse``) gets one span per resumption, so simulated
waiting between resumptions is never counted as host time.

A span carries a name, a start, an end and its parent, the span open when
it started.  Spans are kept in memory in flat arrays and written out at
the end with :meth:`Tracer.dump`.  Self time, a span minus its children,
is also summed online per name.  Garbage-collector pauses, reported by
``gc.callbacks``, are spans named ``gc`` wherever they interrupt, so no
layer's self time holds them.

:class:`EventClassCounter` is a ``Simulation.set_trace`` hook that sorts
every popped kernel event into one class; the classes sum to the number
of events processed.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gc
import inspect
import json
import pathlib
import time

_clock = time.perf_counter


class Tracer:
    """Span recorder: flat arrays of spans plus online per-name totals.

    ``open`` and ``close`` are closures over the arrays: they run once per
    traced call or resumption, so every attribute lookup saved there is
    tracing overhead saved.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.name_ids = name_ids = array.array("i")
        self.parents = parents = array.array("i")
        self.starts = starts = array.array("d")
        self.ends = ends = array.array("d")
        #: Per name id: calls (counted by wrappers) and summed self seconds.
        self.calls: list[int] = []
        self_s: list[float] = []
        self.self_s = self_s
        # Open spans and the time their children cover.  Only ints and
        # floats go in, so opening a span allocates no object the garbage
        # collector tracks, and a collection never starts inside
        # open/close.
        open_spans: list[int] = []
        self._open = open_spans
        child: list[float] = []

        def open_span(sid: int) -> None:
            index = len(starts)
            name_ids.append(sid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            child.append(0.0)
            starts.append(_clock())

        def close_span() -> None:
            end = _clock()
            index = open_spans.pop()
            duration = end - starts[index]
            self_s[name_ids[index]] += duration - child.pop()
            ends[index] = end
            if child:
                child[-1] += duration

        self.open = open_span
        self.close = close_span

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return sid

    def reset(self) -> None:
        """Forget every closed span and total (none may be open)."""
        if self._open:
            raise RuntimeError("reset() with open spans")
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            del column[:]
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` for every span name."""
        return {name: (self.calls[sid], self.self_s[sid])
                for sid, name in enumerate(self.names)}

    def dump(self, path: str | pathlib.Path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": ["name_ids:i", "parents:i", "starts:d",
                             "ends:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_ids, self.parents, self.starts,
                           self.ends):
                column.tofile(handle)


def load_spans(path: str | pathlib.Path) -> dict:
    """Read a :meth:`Tracer.dump` file back into names and arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = {"names": header["names"]}
        for field in header["arrays"]:
            key, code = field.split(":")
            column = array.array(code)
            column.fromfile(handle, header["spans"])
            spans[key] = column
    return spans


def self_times(spans: dict) -> dict[str, float]:
    """Self seconds per span name, recomputed from written spans."""
    covered = [0.0] * len(spans["starts"])
    for index, parent in enumerate(spans["parents"]):
        if parent >= 0:
            covered[parent] += spans["ends"][index] - spans["starts"][index]
    totals: dict[str, float] = {}
    for index, sid in enumerate(spans["name_ids"]):
        name = spans["names"][sid]
        own = spans["ends"][index] - spans["starts"][index] - covered[index]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def _wrap_call(tracer: Tracer, sid: int, fn):
    calls, open_span, close_span = tracer.calls, tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[sid] += 1
        open_span(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span()
    return traced


def _wrap_generator(tracer: Tracer, sid: int, fn):
    # functools.wraps copies __name__, and a generator takes its name from
    # its function, so processes keep the names the kernel trace records.
    calls, open_span, close_span = tracer.calls, tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[sid] += 1
        inner = fn(*args, **kwargs)
        send = inner.send
        value = None
        error: BaseException | None = None
        while True:
            open_span(sid)
            try:
                if error is None:
                    target = send(value)
                else:
                    target = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                close_span()
            try:
                value = yield target
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the body
                value, error = None, exc
    return traced


def _targets():
    """``(span name, owner, attribute)`` for every traced public call."""
    from repro.chaincode.base import Chaincode
    from repro.chaincode.system import ESCC, VSCC
    from repro.client.sdk import ClientNode
    from repro.common.crypto import CryptoProvider
    from repro.ledger.ledger import Ledger
    from repro.metrics.collector import MetricsCollector
    from repro.msp.msp import MSP
    from repro.orderer.blockcutter import BlockCutter
    from repro.peer import validator
    from repro.peer.endorser import Endorser
    from repro.peer.gossip import GossipService
    from repro.sim.network import Network
    from repro.statedb.backend import StateBackend

    targets = [
        ("sim.network.send", Network, "send"),
        ("client.invoke", ClientNode, "invoke"),
        ("peer.endorse", Endorser, "endorse"),
        ("peer.vscc", VSCC, "validate"),
        ("peer.mvcc", validator, "check_mvcc"),
        ("peer.gossip", GossipService, "on_block"),
        ("chaincode.escc", ESCC, "endorse"),
        ("msp.verify", MSP, "verify_signature"),
        ("crypto.sign", CryptoProvider, "sign"),
        ("crypto.verify", CryptoProvider, "verify"),
        ("orderer.cutter", BlockCutter, "add"),
        ("orderer.cutter", BlockCutter, "cut"),
        ("ledger.commit_block", Ledger, "commit_block"),
        ("statedb.get", StateBackend, "get"),
        ("statedb.commit_batch", StateBackend, "commit_batch"),
    ]
    pending = [Chaincode]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "invoke" in vars(cls) and cls is not Chaincode:
            targets.append(("chaincode.invoke", cls, "invoke"))
    for attr in ("record", "tx_submitted", "tx_endorsed", "tx_broadcast",
                 "tx_resubmitted", "tx_ordered", "tx_validated",
                 "tx_committed", "tx_rejected", "block_cut",
                 "runtime_event", "set_counters"):
        targets.append(("metrics.record", MetricsCollector, attr))
    for attr in ("aggregate", "aggregate_by_cohort", "aggregate_by_channel"):
        targets.append(("metrics.aggregate", MetricsCollector, attr))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced call and time GC pauses; undo both on exit.

    Enter before the network is built, so no object caches an unwrapped
    bound method.
    """
    saved = []
    for name, owner, attr in _targets():
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        sid = tracer.name_id(name)
        wrap = (_wrap_generator if inspect.isgeneratorfunction(fn)
                else _wrap_call)
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrap(tracer, sid, fn))
    gc_sid = tracer.name_id("gc")
    calls, open_span, close_span = tracer.calls, tracer.open, tracer.close

    def on_gc(phase, info):
        if phase == "start":
            calls[gc_sid] += 1
            open_span(gc_sid)
        else:
            close_span()

    gc.callbacks.append(on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(on_gc)
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


EVENT_CLASSES = ("timeout", "process", "request", "store", "other")


class EventClassCounter:
    """``Simulation.set_trace`` hook counting popped events by class.

    - ``timeout``: :class:`~repro.sim.events.Timeout`;
    - ``process``: a process's init event or its completion;
    - ``request``: a granted :class:`~repro.sim.resources.Request`;
    - ``store``: an event returned by ``Store.get`` (message delivery);
    - ``other``: everything else (condition events, resumes of already
      fired targets, plain events the Fabric layers create).

    :attr:`forward`, when set, receives every record too, so a
    :class:`~repro.sim.sanitizer.TraceDigest` can watch the same run.
    Enter :meth:`watch_stores` before the network is built.
    """

    def __init__(self) -> None:
        from repro.sim.core import Process
        from repro.sim.events import Event, Timeout
        from repro.sim.resources import Request

        self.counts = dict.fromkeys(EVENT_CLASSES, 0)
        self.forward = None
        self._store_events: set[int] = set()
        self._by_type = {Timeout: "timeout", Process: "process",
                         Request: "request"}
        self._event_type = Event
        self._resume = Process._resume

    @contextlib.contextmanager
    def watch_stores(self):
        """Note the id of every event ``Store.get`` returns."""
        from repro.sim.resources import Store

        original = vars(Store)["get"]
        noted = self._store_events

        @functools.wraps(original)
        def get(store):
            event = original(store)
            noted.add(id(event))
            return event

        Store.get = get
        try:
            yield self
        finally:
            Store.get = original

    def record(self, when, seq, event) -> None:
        kind = self._by_type.get(type(event))
        if kind is None:
            # A noted id still names the same live event: the store or
            # the schedule holds every getter until it is popped here.
            if id(event) in self._store_events:
                self._store_events.discard(id(event))
                kind = "store"
            elif type(event) is self._event_type and self._is_init(event):
                kind = "process"
            else:
                kind = "other"
        self.counts[kind] += 1
        if self.forward is not None:
            self.forward.record(when, seq, event)

    def _is_init(self, event) -> bool:
        # An init event resumes a process whose generator has not started;
        # a resume of an already fired target finds it suspended.
        callbacks = event.callbacks
        if not callbacks or len(callbacks) != 1:
            return False
        resume = callbacks[0]
        if getattr(resume, "__func__", None) is not self._resume:
            return False
        return (inspect.getgeneratorstate(resume.__self__._generator)
                == inspect.GEN_CREATED)

"""Which program functions belong to which layer, and the per-layer metrics.

:func:`install` wraps the program's public functions and methods (and
the private methods the scheduler calls back into, which is where a
layer's work happens) with :class:`~spans.Tracer` spans, one layer name
per module.  :func:`layer_metrics` turns a traced round into the
per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterable, Tuple

from spans import Tracer

__all__ = [
    "install", "install_bridge_wait", "layer_metrics", "PER_LAYER_UNITS", "SELF_TIME_METRICS",
]

#: Methods that must keep their identity: the execution layer compares
#: ``Peer._execute_one`` with ``Peer._baseline_execute_one`` to detect
#: patched (byzantine) peers, so wrapping either would change behaviour.
_KEEP_IDENTITY = {"_execute_one", "_baseline_execute_one"}


def _wrap_class(tracer: Tracer, cls: type, layer: str, counted: Iterable[str] = ()) -> None:
    """Wrap every plain method defined on ``cls``; each call of a method
    named in ``counted`` also adds one to the counter ``<layer>.<name>``."""
    counted = set(counted)
    for name, value in list(vars(cls).items()):
        if (
            not inspect.isfunction(value)
            or name.startswith("__")
            or name in _KEEP_IDENTITY
        ):
            continue
        hook = None
        if name in counted:
            key = f"{layer}.{name}"
            hook = lambda args, result, key=key: tracer.count(key)  # noqa: E731
        tracer.wrap_method(cls, name, layer, hook)


def install(tracer: Tracer) -> None:
    """Wrap every layer of the program (idempotent per tracer)."""
    from repro.blockchain import codec, contracts, crypto, execution, ledger
    from repro.blockchain.client import BlockchainClient
    from repro.blockchain.ordering import OrderingService
    from repro.blockchain.peer import Peer
    from repro.blockchain.state import WorldState
    from repro.blockchain.swaps import SwapCoordinator
    from repro.blockchain.transaction import TxValidationCode
    from repro.core.shim import Shim
    from repro.realnet.transport import RealNetwork
    from repro.simnet.bridge import TimeBridge
    from repro.simnet.transport import Network

    count = tracer.count

    _wrap_class(tracer, Shim, "shim", ["on_game_event"])
    _wrap_class(tracer, BlockchainClient, "client", ["submit"])
    _wrap_class(tracer, OrderingService, "ordering")
    _wrap_class(tracer, Peer, "peer", ["handle_message", "_on_vote", "_on_sync_hash"])
    _wrap_class(tracer, SwapCoordinator, "swaps", ["start_swap"])
    tracer.wrap_method(execution.ValidationExecutor, "execute_block", "execution")
    tracer.wrap_function(contracts, "execute_transaction", "contracts")

    conflict = TxValidationCode.MVCC_READ_CONFLICT
    tracer.wrap_method(
        ledger.Ledger, "append", "ledger",
        lambda args, codes: count("ledger.mvcc_conflicts", sum(c == conflict for c in codes)),
    )
    tracer.wrap_method(WorldState, "state_hash", "state")

    tracer.wrap_function(crypto, "generate_keypair", "crypto.keygen")
    tracer.wrap_method(crypto.PrivateKey, "sign", "crypto.sign")
    tracer.wrap_method(
        crypto.PublicKey, "verify", "crypto.verify",
        lambda args, ok: count("crypto.verifies"),
    )
    tracer.wrap_method(crypto.PublicKey, "verify_uncached", "crypto.verify")
    tracer.wrap_function(
        crypto, "verify_batch", "crypto.verify",
        lambda args, oks: count("crypto.verifies", len(oks)),
    )
    for name in ("canonical_digest", "sha256_hex", "merkle_root"):
        tracer.wrap_function(crypto, name, "crypto.digest")

    def on_encode(args, data):
        count("codec.encodes")
        count("codec.bytes", len(data))

    tracer.wrap_function(codec, "encode", "codec", on_encode)
    tracer.wrap_function(codec, "decode", "codec", lambda args, obj: count("codec.decodes"))

    def on_send(args, _result):
        if type(args[3]).__name__ == "QueryTxStatus":
            count("client.status_queries")

    for cls, layer in ((Network, "transport"), (RealNetwork, "realnet.send")):
        tracer.wrap_method(cls, "send", layer, on_send)
        tracer.wrap_method(cls, "send_many", layer)
    tracer.wrap_method(Network, "_deliver", "transport")
    tracer.wrap_method(RealNetwork, "_transmit", "realnet.send")
    # The socket work runs in coroutines on the asyncio loop: the writes
    # (and reconnects) in ``_drain_channel``, the frame reads in
    # ``_serve_conn``.  Each step between two awaits is a span.
    tracer.wrap_coroutine_method(RealNetwork, "_drain_channel", "realnet.send")
    tracer.wrap_coroutine_method(RealNetwork, "_serve_conn", "realnet.recv")

    def on_frame(args, _result):
        count("realnet.frames")
        count("realnet.bytes", len(args[1]))

    tracer.wrap_method(RealNetwork, "_on_frame", "realnet.recv", on_frame)
    tracer.wrap_method(RealNetwork, "_deliver", "realnet.recv")

    tracer.wrap_method(TimeBridge, "_dispatch", "bridge")
    install_bridge_wait(tracer)


def install_bridge_wait(tracer: Tracer) -> None:
    """Count bridge commands and time the parent blocked on worker replies."""
    from repro.blockchain.shardworker import ProcessShardGroupPort
    from repro.simnet.bridge import TimeBridge

    tracer.wrap_method(
        TimeBridge, "submit", "bridge",
        lambda args, _r: tracer.count("bridge.commands"),
    )
    tracer.wrap_method(ProcessShardGroupPort, "finish_epoch", "bridge.wait")


#: name -> (unit, better); the order is the order of the output.
PER_LAYER_UNITS: Dict[str, Tuple[str, str]] = {
    "shim.events": ("count", "higher"),
    "shim.txs": ("count", "lower"),
    "shim.self_s": ("s", "lower"),
    "client.submits": ("count", "lower"),
    "client.status_queries": ("count", "lower"),
    "client.queries_per_commit": ("ratio", "lower"),
    "client.self_s": ("s", "lower"),
    "ordering.blocks": ("count", "lower"),
    "ordering.txs_per_block": ("ratio", "higher"),
    "ordering.self_s": ("s", "lower"),
    "peer.messages": ("count", "lower"),
    "peer.votes": ("count", "lower"),
    "peer.sync_hashes": ("count", "lower"),
    "peer.self_s": ("s", "lower"),
    "execution.blocks": ("count", "lower"),
    "execution.cache_hit_ratio": ("ratio", "higher"),
    "execution.self_s": ("s", "lower"),
    "contracts.invocations": ("count", "lower"),
    "contracts.self_s": ("s", "lower"),
    "ledger.appends": ("count", "lower"),
    "ledger.mvcc_conflicts": ("count", "lower"),
    "ledger.self_s": ("s", "lower"),
    "state.hashes": ("count", "lower"),
    "state.hash_s": ("s", "lower"),
    "crypto.keygens": ("count", "lower"),
    "crypto.keygen_s": ("s", "lower"),
    "crypto.signs": ("count", "lower"),
    "crypto.sign_s": ("s", "lower"),
    "crypto.verifies": ("count", "lower"),
    "crypto.verify_s": ("s", "lower"),
    "crypto.verify_cache_hit_ratio": ("ratio", "higher"),
    "crypto.digests": ("count", "lower"),
    "crypto.digest_s": ("s", "lower"),
    "codec.encodes": ("count", "lower"),
    "codec.decodes": ("count", "lower"),
    "codec.bytes": ("bytes", "lower"),
    "codec.self_s": ("s", "lower"),
    "scheduler.events": ("count", "lower"),
    "scheduler.residual_s": ("s", "lower"),
    "transport.messages": ("count", "lower"),
    "transport.bytes": ("bytes", "lower"),
    "transport.self_s": ("s", "lower"),
    "bridge.rounds": ("count", "lower"),
    "bridge.wait_s": ("s", "lower"),
    "bridge.commands_per_round": ("ratio", "higher"),
    "bridge.self_s": ("s", "lower"),
    "swaps.started": ("count", "higher"),
    "swaps.committed": ("count", "higher"),
    "swaps.self_s": ("s", "lower"),
    "realnet.frames": ("count", "lower"),
    "realnet.bytes": ("bytes", "lower"),
    "realnet.send_s": ("s", "lower"),
    "realnet.recv_s": ("s", "lower"),
    "realnet.connects": ("count", "lower"),
    "realnet.loop_busy_ratio": ("ratio", "lower"),
    "realnet.timer_late_p50_ms": ("ms", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


#: The metrics that are self times of the traced round's layers; with
#: ``scheduler.residual_s`` they add up to ``trace.wall_s``.
SELF_TIME_METRICS = (
    "shim.self_s", "client.self_s", "ordering.self_s", "peer.self_s",
    "execution.self_s", "contracts.self_s", "ledger.self_s", "state.hash_s",
    "crypto.keygen_s", "crypto.sign_s", "crypto.verify_s", "crypto.digest_s",
    "codec.self_s", "transport.self_s", "bridge.self_s", "swaps.self_s",
    "realnet.send_s", "realnet.recv_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, untraced, bridge=None) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``traced``/``untraced`` are the :class:`~workloads.Round` results of
    the traced round and of an untraced round of the same work;
    ``bridge`` is the round at the timed worker placement whose
    parent-side bridge spans were recorded, when the traced round placed
    the shards in-process.
    """
    c = tracer.counts
    k = traced.counters
    calls = tracer.calls
    bridge_round, bridge_tracer = bridge if bridge is not None else (traced, tracer)
    hits = k.get("execution.cache_hits", 0)
    misses = k.get("execution.cache_misses", 0)
    verifies = c.get("crypto.verifies", 0)
    submits = c.get("client.submit", 0)
    queries = c.get("client.status_queries", 0)
    rounds = bridge_round.counters.get("bridge.rounds", 0)
    commands = bridge_tracer.counts.get("bridge.commands", 0)
    wall = traced.wall_s
    metrics = {
        "shim.events": c.get("shim.on_game_event", 0),
        "shim.txs": k.get("shim.txs", 0),
        "shim.self_s": tracer.self_s("shim"),
        "client.submits": submits,
        "client.status_queries": queries,
        "client.queries_per_commit": _ratio(queries, submits),
        "client.self_s": tracer.self_s("client"),
        "ordering.blocks": k.get("ordering.blocks", 0),
        "ordering.txs_per_block": _ratio(k.get("ordering.txs", 0), k.get("ordering.blocks", 0)),
        "ordering.self_s": tracer.self_s("ordering"),
        "peer.messages": c.get("peer.handle_message", 0),
        "peer.votes": c.get("peer._on_vote", 0),
        "peer.sync_hashes": c.get("peer._on_sync_hash", 0),
        "peer.self_s": tracer.self_s("peer"),
        "execution.blocks": calls("execution"),
        "execution.cache_hit_ratio": _ratio(hits, hits + misses),
        "execution.self_s": tracer.self_s("execution"),
        "contracts.invocations": calls("contracts"),
        "contracts.self_s": tracer.self_s("contracts"),
        "ledger.appends": calls("ledger"),
        "ledger.mvcc_conflicts": c.get("ledger.mvcc_conflicts", 0),
        "ledger.self_s": tracer.self_s("ledger"),
        "state.hashes": calls("state"),
        "state.hash_s": tracer.self_s("state"),
        "crypto.keygens": calls("crypto.keygen"),
        "crypto.keygen_s": tracer.self_s("crypto.keygen"),
        "crypto.signs": calls("crypto.sign"),
        "crypto.sign_s": tracer.self_s("crypto.sign"),
        "crypto.verifies": verifies,
        "crypto.verify_s": tracer.self_s("crypto.verify"),
        "crypto.verify_cache_hit_ratio": _ratio(
            verifies - k.get("crypto.verify_entries", 0), verifies
        ),
        "crypto.digests": calls("crypto.digest"),
        "crypto.digest_s": tracer.self_s("crypto.digest"),
        "codec.encodes": c.get("codec.encodes", 0),
        "codec.decodes": c.get("codec.decodes", 0),
        "codec.bytes": c.get("codec.bytes", 0),
        "codec.self_s": tracer.self_s("codec"),
        "scheduler.events": k.get("scheduler.events", 0),
        "scheduler.residual_s": wall - tracer.total_self_s(),
        "transport.messages": k.get("transport.messages", 0),
        "transport.bytes": k.get("transport.bytes", 0),
        "transport.self_s": tracer.self_s("transport"),
        "bridge.rounds": rounds,
        "bridge.wait_s": bridge_tracer.self_s("bridge.wait"),
        "bridge.commands_per_round": _ratio(commands, rounds),
        "bridge.self_s": tracer.self_s("bridge"),
        "swaps.started": c.get("swaps.start_swap", 0),
        "swaps.committed": k.get("swaps.committed", 0),
        "swaps.self_s": tracer.self_s("swaps"),
        "realnet.frames": c.get("realnet.frames", 0),
        "realnet.bytes": c.get("realnet.bytes", 0),
        "realnet.send_s": tracer.self_s("realnet.send"),
        "realnet.recv_s": tracer.self_s("realnet.recv"),
        "realnet.connects": k.get("realnet.connects", 0),
        "realnet.loop_busy_ratio": untraced.counters.get("realnet.loop_busy_ratio", 0.0),
        "realnet.timer_late_p50_ms": untraced.counters.get("realnet.timer_late_p50_ms", 0.0),
        "gen.late_p99_ms": untraced.counters.get("gen.late_p99_ms", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced.wall_s,
    }
    return metrics

"""The three benchmark workloads, driven through the program's public API.

Each workload builds its inputs from the seed once (:func:`make_inputs`)
and then runs *rounds*.  A round sets the system up from nothing (keys,
network, contract, players or minted assets, worker processes or
listeners), feeds every input event at its due time, and stops the
clock at the last acknowledgement; then it checks the outputs and tears
the system down.  Every round of a run repeats the same operations.

* ``deathmatch-32p`` — the paper's headline session: 32 peers on simnet
  (``INTERNET_US``), one shim replaying a 1000-event prefix of the
  session-#9 Doom trace, 5-transaction mutually exclusive
  blocks, RSA signatures verified.
* ``mmog-8shard`` — 1000 sessions x 100 players on 8 shards of 2 peers
  behind the time bridge, in 2 worker processes; 3000 pre-planned
  session events on distinct keys plus 2 % cross-session asset swaps.
* ``realnet-replay`` — the Doom replay on localhost TCP
  (``backend="realnet"``), 16 peers on one asyncio loop, fed a
  2000-event prefix open-loop at 12x the trace's own pace (the loop is
  busy about half the time).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.blockchain import FabricConfig
from repro.blockchain.crypto import crypto_cache_sizes, reset_crypto_caches
from repro.blockchain.execution import (
    clear_execution_cache,
    execution_stats,
    reset_execution_stats,
)
from repro.blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from repro.blockchain.swaps import SwapCoordinator, asset_key
from repro.blockchain.transaction import TxValidationCode
from repro.core import GameSession, ShardedSessionPool
from repro.game.traces import generate_session
from repro.simnet.latency import INTERNET_US, Region
from repro.simnet.topology import place_random

import checks

__all__ = ["WORKLOADS", "Workload", "Round", "make_inputs", "percentile"]

VALID = TxValidationCode.VALID

#: Session #9 of the paper's dataset is generated with seed 2018 + 8.
SESSION9_TRACE_SEED = 2026
SESSION9_DURATION_MS = 24 * 60_000.0

DEATHMATCH_EVENTS = 1000
REALNET_EVENTS = 2000
DEATHMATCH_PEERS = 32
REALNET_PEERS = 16
REALNET_SPEEDUP = 12.0
#: Lead time between scheduling the open-loop feed and its first due time.
REALNET_LEAD_MS = 50.0
REALNET_PROBE_MS = 10.0

MMOG_SHARDS = 8
MMOG_PEERS = 16
MMOG_SESSIONS = 1000
MMOG_PLAYERS = 100
MMOG_EVENTS = 3000
MMOG_SWAP_FRACTION = 0.02
MMOG_INJECT_MS = 0.05
MMOG_PROCS = 2
MMOG_DEPLOYMENT_SEED = 11
MMOG_POLL_MS = 100.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Round:
    """What one round measured."""

    setup_s: float = 0.0
    #: wall seconds of the whole round (set-up, measured phase, drain)
    wall_s: float = 0.0
    #: wall seconds from the first event's due time to the last ack
    measure_s: float = 0.0
    #: CPU seconds of every process of the run over the measured phase
    cpu_s: float = 0.0
    attempted: int = 0
    valid: int = 0
    #: due-to-ack latency of every event, in ms of the workload's clock
    latencies_ms: List[float] = field(default_factory=list)
    #: the same span on the workload's clock, in ms
    clock_span_ms: float = 0.0
    #: peak resident set of the worker processes, summed (kB)
    worker_rss_kb: int = 0
    problems: List[str] = field(default_factory=list)
    #: program counters read after the round (for the traced run)
    counters: Dict[str, float] = field(default_factory=dict)
    #: outputs that must repeat bit-identically on simnet
    fingerprint: Any = None
    #: what the correctness checks read (kept so tests can tamper with it)
    outputs: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.valid


@dataclass(frozen=True)
class Workload:
    name: str
    #: "simulated" or "wall": the clock ack latencies are measured on
    clock: str
    backend: str
    #: worker processes at the timed placement (0: no bridge)
    procs: int
    run_round: Callable[..., Round]


# ----------------------------------------------------------------------
# host measurements


def _worker_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def cpu_now(pids: List[int]) -> float:
    """CPU seconds used so far by this process and the given children."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in pids)


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def stop_helper_processes() -> None:
    """Stop and reap multiprocessing's resource tracker.

    Starting a ``spawn`` worker also starts this helper process, which
    otherwise outlives the run: it is orphaned when the benchmark exits
    and ends only after it sees the parent's end of its pipe close.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _reset_process_caches() -> None:
    """Every round starts cold, as a fresh session in a fresh process would."""
    reset_crypto_caches()
    clear_execution_cache()
    reset_execution_stats()


# ----------------------------------------------------------------------
# inputs


def _deployment_seed(n_peers: int) -> int:
    """The first network seed whose random placement puts peers 0-3 (the
    anchors of the four roster slots) in the orderer's region."""
    for seed in range(100_000):
        regions = place_random(n_peers, INTERNET_US.region_pool, seed=seed)
        if all(region == Region.DALLAS for region in regions[:4]):
            return seed
    raise RuntimeError("no placement found")  # pragma: no cover


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Generate a workload's input from ``seed`` (the program sees only this)."""
    if workload in ("deathmatch-32p", "realnet-replay"):
        # The seed picks the roster slot of the replaying shim: its player
        # name, spawn point (so every position in the trace) and anchor
        # peer.  The trace's timing and the deployment (peer placement,
        # jitter stream, keys) stay fixed, because the figures follow
        # them rather than the code; all four anchors sit in the
        # orderer's region, so the slot does not change the geometry.
        slot = seed % 4
        if workload == "deathmatch-32p":
            n_peers, n_events = DEATHMATCH_PEERS, DEATHMATCH_EVENTS
        else:
            n_peers, n_events = REALNET_PEERS, REALNET_EVENTS
        demo = generate_session(
            "#9", SESSION9_DURATION_MS, seed=SESSION9_TRACE_SEED,
            player=f"p{slot + 1}", spawn_index=slot,
        )
        return {"demo": dataclasses.replace(demo, events=demo.events[:n_events]),
                "slot": slot, "seed": _deployment_seed(n_peers)}
    if workload == "mmog-8shard":
        # A saturating round-robin stream over the sessions, so every
        # shard receives the same arrival pattern for every seed; the seed
        # picks each event's player (distinct within a session, so every
        # event writes its own key), its delta, and the trades.
        rng = random.Random(f"mmog-8shard:{seed}")
        per_session = -(-MMOG_EVENTS // MMOG_SESSIONS)
        players = [rng.sample(range(MMOG_PLAYERS), per_session) for _ in range(MMOG_SESSIONS)]
        events = [
            (i % MMOG_SESSIONS, players[i % MMOG_SESSIONS][i // MMOG_SESSIONS], rng.randint(1, 9))
            for i in range(MMOG_EVENTS)
        ]
        n_swaps = int(MMOG_EVENTS * MMOG_SWAP_FRACTION)
        trades = [
            (rng.randrange(MMOG_SESSIONS), rng.randrange(MMOG_SESSIONS), rng.randint(10, 999))
            for _ in range(n_swaps)
        ]
        # The deployment (peer placement, jitter, keys) stays fixed: the
        # seed varies the event stream, not the geometry the simulated
        # latencies follow.
        return {"events": events, "trades": trades, "seed": MMOG_DEPLOYMENT_SEED}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Doom replay (deathmatch-32p on simnet, realnet-replay on TCP)


class _Feeder:
    """Open-loop load generator: feeds each trace event at its due time
    and times every acknowledgement from that due time."""

    def __init__(self, clock, shim, events, start_ms: float, speedup: float):
        self.clock = clock
        self.shim = shim
        self.events = events
        self.n = len(events)
        self.due = {ev.seq: start_ms + ev.t_ms / speedup for ev in events}
        self.late_ms: List[float] = []
        self.acks: List[Tuple[int, str]] = []
        self.latencies_ms: List[float] = []
        self.first_due_wall: Optional[float] = None
        self.first_due_ms: Optional[float] = None
        self.last_ack_wall: Optional[float] = None
        self.last_ack_ms: Optional[float] = None
        self.cpu_start = self.cpu_end = 0.0
        shim.on_ack = self._on_ack

    def schedule(self) -> None:
        for event in self.events:
            self.clock.call_at(self.due[event.seq], self._feed, event)

    def _feed(self, event) -> None:
        late = self.clock.now - self.due[event.seq]
        if self.first_due_wall is None:
            self.first_due_wall = time.perf_counter() - late / 1000.0
            self.first_due_ms = self.due[event.seq]
            self.cpu_start = time.process_time()
        self.late_ms.append(late)
        self.shim.on_game_event(event)

    def _on_ack(self, event, _accepted, code, _latency) -> None:
        now = self.clock.now
        self.acks.append((event.seq, code))
        self.latencies_ms.append(now - self.due[event.seq])
        if len(self.acks) == self.n:
            self.last_ack_wall = time.perf_counter()
            self.cpu_end = time.process_time()
            self.last_ack_ms = now

    @property
    def done(self) -> bool:
        return len(self.acks) >= self.n


def _doom_round(inputs, backend: str, n_peers: int, speedup: float) -> Round:
    demo = inputs["demo"]
    realnet = backend == "realnet"
    _reset_process_caches()
    t0 = time.perf_counter()
    session = GameSession(
        n_peers=n_peers,
        profile=INTERNET_US,
        fabric_config=FabricConfig(
            max_block_txs=5, mutually_exclusive_blocks=True, backend=backend
        ),
        game_map=demo.game_map,
        seed=inputs["seed"],
    )
    net = session.chain.net
    try:
        if realnet:
            net.start()
        session.setup()
        clock = session.scheduler
        setup_s = time.perf_counter() - t0

        shim = session.shims[inputs["slot"]]
        feeder = _Feeder(
            clock, shim, demo.events,
            start_ms=clock.now + (REALNET_LEAD_MS if realnet else 0.0),
            speedup=speedup,
        )
        probe_late: List[float] = []
        if realnet:
            def probe(when: float) -> None:
                probe_late.append(clock.now - when)
                if not feeder.done:
                    clock.call_at(when + REALNET_PROBE_MS, probe, when + REALNET_PROBE_MS)

            clock.call_at(clock.now + REALNET_PROBE_MS, probe, clock.now + REALNET_PROBE_MS)
        feeder.schedule()
        if realnet:
            net.run_until_idle(max_wall_ms=120_000)
        else:
            session.run_until_idle()
        wall_s = time.perf_counter() - t0

        r = Round(setup_s=setup_s, wall_s=wall_s, attempted=feeder.n)
        r.valid = sum(code == VALID for _, code in feeder.acks)
        r.latencies_ms = feeder.latencies_ms
        if not feeder.done:
            r.problems.append(f"{len(feeder.acks)} of {feeder.n} events acknowledged")
            return r
        r.measure_s = feeder.last_ack_wall - feeder.first_due_wall
        r.cpu_s = feeder.cpu_end - feeder.cpu_start
        r.clock_span_ms = feeder.last_ack_ms - feeder.first_due_ms

        live = [p for p in session.chain.peers if not net.condition(p.name).down]
        expected = checks.expected_doom_assets(demo)
        r.outputs = {
            "event_seqs": [ev.seq for ev in demo.events],
            "acks": feeder.acks,
            "peers": [(p.name, p.ledger.state_hash(), p.committed_height) for p in live],
            "expected_assets": expected,
            "committed_assets": checks.committed_doom_assets(
                live[0].ledger.state, shim.player, expected.keys()
            ),
            "latencies_ms": r.latencies_ms,
            "floor_ms": None if realnet else checks.min_round_trip_ms(
                INTERNET_US, shim.region, session.chain.orderer.region,
                shim.anchor_peer.region,
            ),
        }
        r.problems += checks.doom_problems(r.outputs)
        if not realnet:
            r.fingerprint = (tuple(r.latencies_ms), live[0].ledger.state_hash())

        stats = net.stats
        exec_stats = execution_stats()
        r.counters = {
            "shim.txs": sum(s.stats.txs_dispatched for s in session.shims),
            "ordering.blocks": session.chain.orderer.blocks_cut,
            "ordering.txs": session.chain.orderer.txs_ordered,
            "execution.cache_hits": exec_stats["cache_hits"],
            "execution.cache_misses": exec_stats["cache_misses"],
            "crypto.verify_entries": crypto_cache_sizes()["verify"],
            "scheduler.events": clock.events_processed,
            "gen.late_p99_ms": percentile(feeder.late_ms, 99),
        }
        if realnet:
            r.counters.update({
                "realnet.connects": net.connects,
                "realnet.loop_busy_ratio": r.cpu_s / r.measure_s,
                "realnet.timer_late_p50_ms": percentile(probe_late, 50),
            })
        else:
            r.counters.update({
                "transport.messages": stats.messages_sent,
                "transport.bytes": stats.bytes_sent,
            })
        return r
    finally:
        if realnet:
            net.close()


def deathmatch_round(inputs, procs: int = 0) -> Round:
    return _doom_round(inputs, "simnet", DEATHMATCH_PEERS, speedup=1.0)


def realnet_round(inputs, procs: int = 0) -> Round:
    return _doom_round(inputs, "realnet", REALNET_PEERS, speedup=REALNET_SPEEDUP)


# ----------------------------------------------------------------------
# mmog-8shard


def mmog_round(inputs, procs: int = MMOG_PROCS) -> Round:
    """One sharded round; ``procs`` 1 places every shard in-process."""
    _reset_process_caches()
    t0 = time.perf_counter()
    engine = BridgedShardEngine(
        n_peers=MMOG_PEERS,
        n_shards=MMOG_SHARDS,
        config=FabricConfig(max_block_txs=10, verify_signatures=False),
        profile=INTERNET_US,
        seed=inputs["seed"],
        procs=procs,
    )
    try:
        return _mmog_run(engine, inputs, t0)
    finally:
        engine.close()


def _mmog_run(engine: BridgedShardEngine, inputs, t0: float) -> Round:
    pool = ShardedSessionPool(
        engine, MMOG_SESSIONS, MMOG_PLAYERS, poll_interval_ms=MMOG_POLL_MS
    )
    trades = inputs["trades"]
    minted: Dict[str, Tuple[str, int]] = {}
    mint_codes: List[str] = []
    for j, (src, _dst, value) in enumerate(trades):
        aid = f"a{j:04d}"
        minted[aid] = (pool.session_id(src), value)
        pool.router.submit(
            pool.session_id(src), "mint", (aid, pool.session_id(src), value),
            touched_keys=(asset_key(aid),),
            on_complete=lambda result, _lat: mint_codes.append(result.code),
            effect_time=0.0,
        )
    engine.run()
    setup_s = time.perf_counter() - t0

    pids = _worker_pids()
    events = inputs["events"]
    n = len(events)
    start_ms = engine.now
    codes: List[str] = []
    latencies: List[float] = []
    marks: Dict[str, float] = {}

    def on_event(due: float):
        def done(result, _latency) -> None:
            codes.append(result.code)
            latencies.append(engine.now - due)
            if len(codes) == n:
                marks["wall"] = time.perf_counter()
                marks["cpu"] = cpu_now(pids)
                marks["clock"] = engine.now
        return done

    wall0 = time.perf_counter()
    cpu0 = cpu_now(pids)
    for i, (session, player, delta) in enumerate(events):
        due = start_ms + i * MMOG_INJECT_MS
        pool.submit_event(session, player, delta, on_event(due), effect_time=due)
    coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
    span_ms = n * MMOG_INJECT_MS
    for j, (src, dst, value) in enumerate(trades):
        engine.call_at(
            start_ms + (j + 1) * span_ms / (len(trades) + 1),
            coordinator.start_swap, f"swap{j:04d}", f"a{j:04d}",
            pool.shard_of(src), pool.shard_of(dst), pool.session_id(dst), value,
        )
    engine.run()
    worker_rss = sum(_proc_peak_rss_kb(pid) for pid in pids)
    summaries = engine.collect_summaries()
    wall_s = time.perf_counter() - t0

    r = Round(setup_s=setup_s, wall_s=wall_s, attempted=n, worker_rss_kb=worker_rss)
    r.valid = sum(code == VALID for code in codes)
    r.latencies_ms = latencies
    if "wall" not in marks:
        r.problems.append(f"{len(codes)} of {n} session events acknowledged")
        return r
    r.measure_s = marks["wall"] - wall0
    r.cpu_s = marks["cpu"] - cpu0
    r.clock_span_ms = marks["clock"] - start_ms

    bad_mints = [c for c in mint_codes if c != VALID]
    if len(mint_codes) != len(trades) or bad_mints:
        r.problems.append(f"mints: {len(mint_codes)} acknowledged, {len(bad_mints)} not VALID")
    outcomes = {
        f"a{j:04d}": (
            f"swap{j:04d}", pool.session_id(dst),
            coordinator.swaps[f"swap{j:04d}"].outcome or "unresolved",
        )
        for j, (_src, dst, _v) in enumerate(trades)
    }
    paths = [
        (pool.shard_of(src) == pool.shard_of(dst), outcomes[f"a{j:04d}"][2])
        for j, (src, dst, _v) in enumerate(trades)
    ]
    r.outputs = {
        "summaries": summaries,
        "minted": minted,
        "swaps": outcomes,
        "event_codes": codes,
        "n_events": n,
        "unresolved": coordinator.unresolved(),
        "tx_range": checks.expected_mmog_txs(len(trades), n, paths),
    }
    r.problems += checks.check_mmog(**r.outputs)
    r.fingerprint = (
        tuple(latencies),
        tuple(summaries[i]["state_hash"] for i in sorted(summaries)),
    )
    exec_stats = execution_stats()
    r.counters = {
        "bridge.rounds": engine.bridge.rounds,
        "scheduler.events": engine.scheduler_events(),
        "swaps.committed": coordinator.outcomes().get("committed", 0),
        "execution.cache_hits": exec_stats["cache_hits"],
        "execution.cache_misses": exec_stats["cache_misses"],
        "crypto.verify_entries": crypto_cache_sizes()["verify"],
        "state_hashes": tuple(summaries[i]["state_hash"] for i in sorted(summaries)),
    }
    r.counters.update(_in_process_counters(engine))
    return r


def _in_process_counters(engine: BridgedShardEngine) -> Dict[str, float]:
    """Program counters of shard worlds hosted in this process."""
    worlds = []
    for port in engine.bridge.ports:
        group = getattr(port, "_group", None)
        if group is not None:
            worlds.extend(group.worlds.values())
    if not worlds:
        return {}
    nets = [w.chain.net for w in worlds]
    orderers = [w.chain.orderer for w in worlds]
    return {
        "ordering.blocks": sum(o.blocks_cut for o in orderers),
        "ordering.txs": sum(o.txs_ordered for o in orderers),
        "transport.messages": sum(net.stats.messages_sent for net in nets),
        "transport.bytes": sum(net.stats.bytes_sent for net in nets),
    }


# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "deathmatch-32p",
            clock="simulated", backend="simnet", procs=0, run_round=deathmatch_round,
        ),
        Workload(
            "mmog-8shard",
            clock="simulated", backend="simnet", procs=MMOG_PROCS, run_round=mmog_round,
        ),
        Workload(
            "realnet-replay",
            clock="wall", backend="realnet", procs=0, run_round=realnet_round,
        ),
    )
}

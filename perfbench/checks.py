"""Correctness checks on each workload's outputs.

Every check compares the program's outputs with a figure computed apart
from the program (the Doom client model replaying the same trace, the
latency profile's minimum round trip, the benchmark's own count of what
it submitted) or with a property the protocol must have (one state hash
per shard).  Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.blockchain.transaction import TxValidationCode
from repro.game.assets import asset_key
from repro.game.client import DoomClient
from repro.simnet.latency import LatencyProfile

__all__ = [
    "check_acks",
    "check_peer_agreement",
    "expected_doom_assets",
    "committed_doom_assets",
    "check_assets",
    "min_round_trip_ms",
    "check_latency_floor",
    "expected_mmog_txs",
    "check_mmog",
    "doom_problems",
]

VALID = TxValidationCode.VALID


def check_acks(event_seqs: Iterable[int], acks: Sequence[Tuple[int, str]]) -> List[str]:
    """Every fed event is acknowledged exactly once, and VALID."""
    problems: List[str] = []
    expected = list(event_seqs)
    seen: Dict[int, int] = {}
    for seq, code in acks:
        seen[seq] = seen.get(seq, 0) + 1
        if code != VALID:
            problems.append(f"event {seq} acknowledged {code}")
    for seq in expected:
        n = seen.get(seq, 0)
        if n != 1:
            problems.append(f"event {seq} acknowledged {n} times")
    unknown = set(seen) - set(expected)
    if unknown:
        problems.append(f"{len(unknown)} acknowledgements for events never fed")
    return problems


def check_peer_agreement(peers: Sequence[Tuple[str, str, int]]) -> List[str]:
    """All live peers hold one state hash and one committed height.

    ``peers`` holds ``(name, state_hash, committed_height)`` per live peer.
    """
    if not peers:
        return ["no live peers"]
    hashes = {h for _, h, _ in peers}
    heights = {c for _, _, c in peers}
    problems = []
    if len(hashes) != 1:
        problems.append(f"peers hold {len(hashes)} distinct state hashes")
    if len(heights) != 1:
        problems.append(f"peers hold committed heights {sorted(heights)}")
    return problems


def expected_doom_assets(demo) -> Dict[int, Any]:
    """The state the game's client model reaches on the trace, off-chain."""
    client = DoomClient(demo.player, game_map=demo.game_map, tickrate=demo.tickrate)
    for event in demo.events:
        client.apply_event(event)
        client.acknowledge(event.seq, True)
    return client.confirmed


def committed_doom_assets(state, player: str, asset_ids: Iterable[int]) -> Dict[int, Any]:
    """Read one player's committed assets from a peer's world state."""
    return {aid: state.get(asset_key(player, aid)) for aid in asset_ids}


def check_assets(expected: Mapping[int, Any], committed: Mapping[int, Any]) -> List[str]:
    problems = []
    for aid, value in sorted(expected.items()):
        got = committed.get(aid)
        if got != value:
            problems.append(f"asset {aid}: committed {got!r}, client model {value!r}")
    return problems


def min_round_trip_ms(
    profile: LatencyProfile, client_region: str, orderer_region: str, anchor_region: str
) -> float:
    """Least simulated time from a client's submission to its ack.

    The transaction travels client -> orderer, the block orderer ->
    anchor peer, and the verdict anchor peer -> client; each hop costs at
    least its propagation delay plus the per-message overhead (jitter and
    serialisation only add to it).
    """
    def hop(a: str, b: str) -> float:
        return profile.propagation(a, b) + profile.overhead_ms

    return (
        hop(client_region, orderer_region)
        + hop(orderer_region, anchor_region)
        + hop(anchor_region, client_region)
    )


def check_latency_floor(latencies_ms: Sequence[float], floor_ms: float) -> List[str]:
    below = [lat for lat in latencies_ms if lat < floor_ms]
    if below:
        return [
            f"{len(below)} simulated ack latencies below the {floor_ms:.3f} ms "
            f"minimum round trip (least {min(below):.3f} ms)"
        ]
    return []


def expected_mmog_txs(
    n_mints: int, n_events: int, swap_paths: Sequence[Tuple[bool, str]]
) -> Tuple[int, int]:
    """Range of committed transactions the benchmark's submissions imply.

    ``swap_paths`` holds ``(same_shard, outcome)`` per swap.  A swap
    within one shard is one transfer; a committed cross-shard swap is
    prepare-out, prepare-in, commit-out and commit-in; an aborted one
    is between one and four transactions.
    """
    low = high = n_mints + n_events
    for same_shard, outcome in swap_paths:
        if same_shard:
            low += 1
            high += 1
        elif outcome == "committed":
            low += 4
            high += 4
        else:
            low += 1
            high += 4
    return low, high


def check_mmog(
    summaries: Mapping[int, Mapping[str, Any]],
    minted: Mapping[str, Tuple[str, int]],
    swaps: Mapping[str, Tuple[str, str, str]],
    event_codes: Sequence[str],
    n_events: int,
    unresolved: Sequence[str],
    tx_range: Tuple[int, int],
) -> List[str]:
    """Check the sharded run from its per-shard summaries.

    ``minted`` maps asset id -> (source session, minted value); ``swaps``
    maps asset id -> (swap id, destination session, outcome).
    """
    problems: List[str] = []
    if len(event_codes) != n_events:
        problems.append(f"{len(event_codes)} of {n_events} session events acknowledged")
    bad = [code for code in event_codes if code != VALID]
    if bad:
        problems.append(f"{len(bad)} session events not VALID")
    if unresolved:
        problems.append(f"{len(unresolved)} swaps unresolved")

    holders: Dict[str, List[Tuple[int, Dict[str, Any]]]] = {}
    for index, summary in summaries.items():
        for asset_id, record in summary["assets"].items():
            holders.setdefault(asset_id, []).append((index, record))
        if summary["locks"]:
            problems.append(f"shard {index} holds {len(summary['locks'])} swap locks")
        if not summary["ledgers_agree"]:
            problems.append(f"shard {index} peers disagree on the state hash")
        if len(summary["committed_heights_all"]) != 1:
            problems.append(
                f"shard {index} peers at heights {summary['committed_heights_all']}"
            )
    for asset_id, (source, value) in sorted(minted.items()):
        found = holders.get(asset_id, [])
        if len(found) != 1:
            problems.append(f"asset {asset_id} appears {len(found)} times")
            continue
        record = found[0][1]
        if record.get("value") != value:
            problems.append(f"asset {asset_id} value {record.get('value')!r} != minted {value}")
        _swap_id, destination, outcome = swaps[asset_id]
        owner = destination if outcome == "committed" else source
        if record.get("owner") != owner:
            problems.append(
                f"asset {asset_id} owned by {record.get('owner')!r}, expected {owner!r} "
                f"(swap {outcome})"
            )
    extra = set(holders) - set(minted)
    if extra:
        problems.append(f"{len(extra)} assets never minted")

    committed = sum(s["committed_tx_count"] for s in summaries.values())
    low, high = tx_range
    if not low <= committed <= high:
        problems.append(f"{committed} committed transactions, submissions imply {low}..{high}")
    return problems


def doom_problems(outputs: Mapping[str, Any]) -> List[str]:
    """All checks of a Doom replay round, from the outputs it recorded."""
    problems = check_acks(outputs["event_seqs"], outputs["acks"])
    problems += check_peer_agreement(outputs["peers"])
    problems += check_assets(outputs["expected_assets"], outputs["committed_assets"])
    if outputs.get("floor_ms") is not None:
        problems += check_latency_floor(outputs["latencies_ms"], outputs["floor_ms"])
    return problems

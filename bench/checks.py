"""Output checks of the benchmark, computed apart from the program.

Every function returns a list of problems, empty when the input passes, so
one point can collect all of its faults. The functions take plain values or
the program's own table objects (SPTable, the FIB dict) and never call the
program's code to decide, so a fault in the program cannot hide itself.
"""

from __future__ import annotations

from collections import deque

# A probe response carries at most five provider ids, and a FIB entry keeps
# at most as many.
FIB_PROVIDER_CAP = 5


def read_config(text: str, sets: tuple[str, ...] = ()) -> dict[str, str]:
    """`key = value` lines of a preset with `--set key=value` overrides on top."""
    config = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    for item in sets:
        key, _, value = item.partition("=")
        config[key.strip()] = value.strip()
    return config


def count_consumers(topo_text: str) -> int:
    """Nodes of a `.topo` text that carry the consumer role."""
    count = 0
    for raw in topo_text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if len(fields) >= 2 and fields[0] == "node" and "consumer" in fields[2:]:
            count += 1
    return count


def row_problems(row: dict[str, str], consumers: int, rate: int,
                 duration: int) -> list[str]:
    """Checks on one `sweep.csv` row.

    Every consumer issues `rate` interests in each whole simulated second;
    each issued interest ends satisfied, unsatisfied or pending; nothing is
    received that was not sent.
    """
    problems = []
    issued = int(row["issued_interests"])
    expected = consumers * rate * duration
    if issued != expected:
        problems.append(f"issued_interests {issued} != {consumers} consumers x "
                        f"{rate}/s x {duration} s = {expected}")
    accounted = (int(row["satisfied_count"]) + int(row["unsatisfied_count"])
                 + int(row["pending_at_end"]))
    if accounted != issued:
        problems.append(f"satisfied + unsatisfied + pending = {accounted} "
                        f"!= issued {issued}")
    if int(row["received_packets"]) > int(row["sent_packets"]):
        problems.append(f"received_packets {row['received_packets']} > "
                        f"sent_packets {row['sent_packets']}")
    return problems


def packet_problems(sent_interests: int, received_interests: int,
                    sent_data: int, received_data: int,
                    lost_in_flight: int, still_queued: int,
                    lossless: bool) -> list[str]:
    """Packet accounting at the end of a run.

    No packet class is received more often than it was sent. Each packet
    sent was received, lost in flight to a failure, is still queued as an
    arrival event, or was dropped by a link (drop-tail or a severed
    interface). On a lossless run (unlimited links, no failures) no link
    drops, so the sum must equal the packets sent exactly.
    """
    problems = []
    for kind, sent, received in (("interests", sent_interests, received_interests),
                                 ("data", sent_data, received_data)):
        if received > sent:
            problems.append(f"{kind}: received {received} > sent {sent}")
    sent = sent_interests + sent_data
    accounted = received_interests + received_data + lost_in_flight + still_queued
    if accounted > sent:
        problems.append(f"received + lost in flight + queued = {accounted} "
                        f"> sent {sent}")
    elif lossless and accounted != sent:
        problems.append(f"{sent - accounted} of {sent} sent packets dropped "
                        f"on a lossless run")
    return problems


def bfs_costs(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    """Hop counts from `source` to every other reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nb in adj[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    del dist[source]
    return dist


def spt_problems(adj: dict[int, list[int]], spts: dict) -> list[str]:
    """Each router's SPTable costs against a BFS over `adj`.

    `spts` maps every surviving router to the table it holds; the table
    must list exactly the routers BFS reaches, at BFS cost.
    """
    problems = []
    if set(spts) != set(adj):
        problems.append(f"SPT owners {sorted(set(spts) ^ set(adj))} differ "
                        f"from the surviving routers")
    for rid in sorted(set(spts) & set(adj)):
        held = {dest: entry.cost for dest, entry in spts[rid].entries.items()}
        expected = bfs_costs(adj, rid)
        if held != expected:
            wrong = sorted(d for d in held.keys() | expected.keys()
                           if held.get(d) != expected.get(d))
            problems.append(f"router {rid}: SPT cost differs from BFS for "
                            f"{len(wrong)} destination(s), first {wrong[0]}: "
                            f"{held.get(wrong[0])} vs {expected.get(wrong[0])}")
    return problems


def probe_problems(strategy: str, sending, probe, origin_holds: bool) -> list[str]:
    """A probe chosen for an interest carrying `sending`.

    basic-ccn never probes; no strategy probes the name being sent or
    content the origin router already holds.
    """
    if probe is None:
        return []
    if strategy == "basic-ccn":
        return [f"basic-ccn attached probe {probe}"]
    if probe == sending:
        return [f"{strategy} probed the interest's own name {probe}"]
    if origin_holds:
        return [f"{strategy} probed {probe}, which the origin holds"]
    return []


def fib_problems(owner: int, fib: dict, capacity: int | None) -> list[str]:
    """A router's whole FIB: size cap, provider cap, owner never listed."""
    problems = fib_size_problems(owner, len(fib), capacity)
    for name, entry in fib.items():
        problems.extend(fib_entry_problems(owner, name, entry.providers))
    return problems


def fib_size_problems(owner: int, size: int, capacity: int | None) -> list[str]:
    if capacity is not None and size > capacity:
        return [f"router {owner}: FIB holds {size} > fib_capacity {capacity}"]
    return []


def fib_entry_problems(owner: int, name, providers: list[int]) -> list[str]:
    problems = []
    if owner in providers:
        problems.append(f"router {owner}: FIB entry {name} lists its owner")
    if len(providers) > FIB_PROVIDER_CAP:
        problems.append(f"router {owner}: FIB entry {name} holds "
                        f"{len(providers)} > {FIB_PROVIDER_CAP} providers")
    return problems

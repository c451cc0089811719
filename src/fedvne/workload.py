"""Workload generation and text-file ingestion.

Generators are pure functions of (config, seed): the same inputs always
produce the same substrate or request stream. File formats are plain
whitespace-separated text; lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite

from .config import ConfigError
from .substrate import MultiDomainSubstrate, union_find


class ParseError(Exception):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


class ValidationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class VirtualNetworkRequest:
    """A virtual network plus the window [t_s, t_e] during which it holds resources.

    Requests loaded from one file share values by equal raw line text of one
    kind: cpu-demand lines of equal text one float, virtual-link lines of
    equal text one ``(a, b, bw)`` triple. Both are immutable; nothing may
    rely on their identity.
    """

    vnr_id: int
    node_demands: tuple[float, ...]
    link_demands: tuple[tuple[int, int, float], ...]
    t_s: float
    t_e: float

    @property
    def num_nodes(self) -> int:
        return len(self.node_demands)

    @property
    def num_links(self) -> int:
        return len(self.link_demands)


def validate_vnr(vnr: VirtualNetworkRequest) -> None:
    if vnr.t_e <= vnr.t_s:
        raise ValidationError(f"vnr {vnr.vnr_id}: departure time must exceed arrival time")
    n = len(vnr.node_demands)
    if n < 1:
        raise ValidationError(f"vnr {vnr.vnr_id}: needs at least one virtual node")
    seen: set[tuple[int, int]] = set()
    for a, b, bw in vnr.link_demands:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"vnr {vnr.vnr_id}: virtual link endpoint out of range")
        if a == b:
            raise ValidationError(f"vnr {vnr.vnr_id}: virtual self-loop at node {a}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ValidationError(f"vnr {vnr.vnr_id}: duplicate virtual link {key}")
        seen.add(key)
        if bw < 0:
            raise ValidationError(f"vnr {vnr.vnr_id}: negative bandwidth demand")
    for d in vnr.node_demands:
        if d < 0:
            raise ValidationError(f"vnr {vnr.vnr_id}: negative cpu demand")
    roots = union_find(n, seen)
    if roots.count(roots[0]) != n:
        raise ValidationError(f"vnr {vnr.vnr_id}: virtual topology is not connected")


# -- generation ----------------------------------------------------------


def generate_substrate(config, seed: int) -> MultiDomainSubstrate:
    """Build a random multi-domain substrate.

    Each domain gets a random spanning tree plus random extra intra-domain
    links; a share of the link budget (``inter_link_ratio``, at least enough
    to connect all domains) is spent on inter-domain links.
    """
    rng = random.Random(seed)
    num_domains = config.num_domains
    per_domain = config.nodes_per_domain
    total_links = config.num_links
    n = num_domains * per_domain

    tree_links = num_domains * (per_domain - 1)
    domain_tree = num_domains - 1
    if total_links < tree_links + domain_tree:
        raise ConfigError(
            f"{total_links} links cannot connect {num_domains} domains of {per_domain} nodes"
        )
    max_intra_per_domain = per_domain * (per_domain - 1) // 2
    max_inter = per_domain * per_domain * num_domains * (num_domains - 1) // 2
    if total_links > max_intra_per_domain * num_domains + max_inter:
        raise ConfigError(f"{total_links} links exceed the simple-graph maximum")

    node_domains = [d for d in range(num_domains) for _ in range(per_domain)]
    coords = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    cpu = [float(rng.randint(config.cpu_min, config.cpu_max)) for _ in range(n)]

    edges: set[tuple[int, int]] = set()
    link_ends: list[tuple[int, int]] = []

    def add_edge(a: int, b: int) -> None:
        key = (min(a, b), max(a, b))
        edges.add(key)
        link_ends.append(key)

    domain_ids = [list(range(d * per_domain, (d + 1) * per_domain)) for d in range(num_domains)]

    for d in range(num_domains):
        order = domain_ids[d][:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            add_edge(rng.choice(order[:i]), order[i])

    used = len(link_ends)
    # a single domain has max_inter == 0, so it draws no inter-domain link
    inter_target = max(domain_tree, round(total_links * config.inter_link_ratio))
    inter_target = min(inter_target, max_inter, total_links - used)
    intra_extra = total_links - used - inter_target

    # spread the extra intra links evenly across domains, lower domain ids
    # taking the remainder; what the domains cannot hold goes to inter-domain
    # links, which the simple-graph check above leaves room for
    free = max_intra_per_domain - (per_domain - 1)
    placed = min(intra_extra, free * num_domains)
    quota = [placed // num_domains + (d < placed % num_domains) for d in range(num_domains)]
    inter_target += intra_extra - placed

    for d in range(num_domains):
        if quota[d] == 0:
            continue
        ids = domain_ids[d]
        candidates = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if (a, b) not in edges]
        for a, b in rng.sample(candidates, quota[d]):
            add_edge(a, b)

    for d in range(1, num_domains):
        other = rng.randrange(d)
        add_edge(rng.choice(domain_ids[other]), rng.choice(domain_ids[d]))
    remaining = inter_target - domain_tree
    if remaining > 0:
        # domains are contiguous id blocks: a's later domains hold the ids past its own block
        candidates = [
            (a, b) for a in range(n) for b in range((node_domains[a] + 1) * per_domain, n) if (a, b) not in edges
        ]
        for a, b in rng.sample(candidates, remaining):
            add_edge(a, b)

    bw = [float(rng.randint(config.bw_min, config.bw_max)) for _ in link_ends]
    return MultiDomainSubstrate(num_domains, node_domains, coords, cpu, link_ends, bw)


def generate_vnr_stream(config, seed: int) -> list[VirtualNetworkRequest]:
    """Draw a time-ordered request stream.

    Inter-arrival gaps are exponential(arrival_rate), lifetimes exponential
    with the configured mean, virtual topologies are edge-sampled with
    probability ``vlink_prob`` and patched to connectivity with uniformly
    chosen bridging edges.
    """
    rng = random.Random(seed)
    stream: list[VirtualNetworkRequest] = []
    t = 0.0
    for vnr_id in range(config.vnr_count):
        t += rng.expovariate(config.arrival_rate)
        lifetime = rng.expovariate(1.0 / config.mean_lifetime)
        n = rng.randint(config.vn_nodes_min, config.vn_nodes_max)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < config.vlink_prob
        ]
        edges.extend(_bridge_components(n, edges, rng))
        cpu = tuple(
            float(rng.randint(config.vnode_cpu_min, config.vnode_cpu_max))
            for _ in range(n)
        )
        links = tuple(
            (a, b, float(rng.randint(config.vlink_bw_min, config.vlink_bw_max)))
            for a, b in edges
        )
        vnr = VirtualNetworkRequest(vnr_id, cpu, links, t, t + lifetime)
        try:  # the generator refuses what the loader would refuse
            if not (isfinite(vnr.t_s) and isfinite(vnr.t_e)):
                raise ValidationError(f"vnr {vnr_id}: arrival and departure times must be finite")
            validate_vnr(vnr)
        except ValidationError as exc:
            raise ConfigError(f"generated {exc}") from None
        stream.append(vnr)
    return stream


def _bridge_components(n: int, edges: list[tuple[int, int]], rng: random.Random):
    """Minimum extra edges joining the components of an edge-sampled graph."""
    roots = union_find(n, edges)
    components: dict[int, list[int]] = {}
    for i in range(n):
        components.setdefault(roots[i], []).append(i)
    groups = [sorted(v) for _, v in sorted(components.items())]
    bridges = []
    merged = groups[0]
    for group in groups[1:]:
        a = rng.choice(merged)
        b = rng.choice(group)
        bridges.append((min(a, b), max(a, b)))
        merged = sorted(merged + group)
    return bridges


def rebase_stream(vnrs) -> list[VirtualNetworkRequest]:
    """Shift arrival/departure times so the stream's clock starts at zero."""
    if not vnrs:
        return []
    base = vnrs[0].t_s
    return [
        VirtualNetworkRequest(
            vnr_id=v.vnr_id,
            node_demands=v.node_demands,
            link_demands=v.link_demands,
            t_s=v.t_s - base,
            t_e=v.t_e - base,
        )
        for v in vnrs
    ]


# -- text formats ----------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def save_substrate(path, substrate: MultiDomainSubstrate) -> None:
    lines = [f"{substrate.num_nodes} {substrate.num_links} {substrate.num_domains}"]
    for i in range(substrate.num_nodes):
        x, y = substrate.coords[i]
        lines.append(
            f"{i} {int(substrate.node_domain[i])} {_fmt(x)} {_fmt(y)} "
            f"{_fmt(substrate.cpu_capacity[i])}"
        )
    for link_id, (a, b) in enumerate(substrate.link_ends):
        lines.append(f"{int(a)} {int(b)} {_fmt(substrate.bw_capacity[link_id])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _line_reader(path: str, fh):
    """Returns (next_line, read_section) over the open file's lines; blank lines
    and lines starting with ``#`` are skipped.

    next_line(what) -> (line number, fields) of the next data line, and
    next_line(None) rejects any data line that is left. read_section(count,
    what, table, parse) -> the values of the next ``count`` data lines (none
    when ``count <= 0``): a line whose raw text, newline included, is a key of
    ``table`` gives that key's value unsplit; any other data line gives
    ``parse(path, line number, fields)``, stored under its raw text. At end of
    file both raise ParseError naming the line after the last one.
    """
    lines = enumerate(fh, 1)
    last = 0

    def next_line(what):
        nonlocal last
        for last, raw in lines:
            fields = raw.split()
            if fields and fields[0][0] != "#":
                if what is None:
                    raise ParseError(path, last, "data after the last declared line")
                return last, fields
        if what is not None:
            raise ParseError(path, last + 1, f"unexpected end of file, expected {what}")

    def read_section(count, what, table, parse):
        nonlocal last
        values = []
        if count <= 0:
            return values
        for last, raw in lines:
            value = table.get(raw)
            if value is None:  # no line parses to None, so a stored line never lands here
                fields = raw.split()
                if not fields or fields[0][0] == "#":
                    continue
                value = table[raw] = parse(path, last, fields)
            values.append(value)
            count -= 1
            if not count:
                return values
        raise ParseError(path, last + 1, f"unexpected end of file, expected {what}")

    return next_line, read_section


def _finite(path: str, line_no: int, text: str) -> float:
    """``text`` as a float: ValueError when it does not parse, ParseError unless finite."""
    value = float(text)
    if not isfinite(value):
        raise ParseError(path, line_no, f"number must be finite, got {text}")
    return value


def load_substrate(path) -> MultiDomainSubstrate:
    path = str(path)
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        next_line, _ = _line_reader(path, fh)
        header_line, header = next_line("header")
        if len(header) != 3:
            raise ParseError(path, header_line, "header must be '<nodes> <links> <domains>'")
        try:
            num_nodes, num_links, num_domains = (int(x) for x in header)
        except ValueError:
            raise ParseError(path, header_line, "header fields must be integers") from None
        if min(num_nodes, num_links, num_domains) < 0:
            raise ParseError(path, header_line, "header counts must be non-negative")

        node_domains, coords, cpu = [], [], []
        element_lines = []  # the line of each node, then of each link
        for i in range(num_nodes):
            line_no, fields = next_line("node line")
            if len(fields) != 5:
                raise ParseError(path, line_no, "node line must be '<id> <domain> <x> <y> <cpu>'")
            try:
                node_id, domain = int(fields[0]), int(fields[1])
                # each number is checked as soon as it parses: the first bad field names the error
                x, y, capacity = (_finite(path, line_no, text) for text in fields[2:])
            except ValueError:
                raise ParseError(path, line_no, "malformed node line") from None
            if node_id != i:
                raise ValidationError(
                    f"{path}:{line_no}: node ids must be sequential from 0, got {node_id} at position {i}"
                )
            element_lines.append(line_no)
            node_domains.append(domain)
            coords.append((x, y))
            cpu.append(capacity)

        link_ends, bw = [], []
        for _ in range(num_links):
            line_no, fields = next_line("link line")
            if len(fields) != 3:
                raise ParseError(path, line_no, "link line must be '<a> <b> <bw>'")
            try:
                a, b, capacity = int(fields[0]), int(fields[1]), _finite(path, line_no, fields[2])
            except ValueError:
                raise ParseError(path, line_no, "malformed link line") from None
            element_lines.append(line_no)
            link_ends.append((a, b))
            bw.append(capacity)
        next_line(None)

    try:
        return MultiDomainSubstrate(num_domains, node_domains, coords, cpu, link_ends, bw)
    except ValueError as exc:  # a fault of the whole substrate names the header
        line_no = header_line if exc.element is None else element_lines[exc.element]
        raise ValidationError(f"{path}:{line_no}: {exc}") from None


def save_vnrs(path, vnrs) -> None:
    lines = [str(len(vnrs))]
    for v in vnrs:
        lines.append(f"{v.vnr_id} {_fmt(v.t_s)} {_fmt(v.t_e)} {v.num_nodes} {v.num_links}")
        for demand in v.node_demands:
            lines.append(_fmt(demand))
        for a, b, bw in v.link_demands:
            lines.append(f"{a} {b} {_fmt(bw)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cpu_demand(path: str, line_no: int, fields: list[str]) -> float:
    if len(fields) != 1:
        raise ParseError(path, line_no, "cpu demand line must hold one number")
    try:
        return _finite(path, line_no, fields[0])
    except ValueError:
        raise ParseError(path, line_no, "malformed cpu demand") from None


def _virtual_link(path: str, line_no: int, fields: list[str]) -> tuple[int, int, float]:
    if len(fields) != 3:
        raise ParseError(path, line_no, "virtual link must be '<a> <b> <bw>'")
    try:
        return int(fields[0]), int(fields[1]), _finite(path, line_no, fields[2])
    except ValueError:
        raise ParseError(path, line_no, "malformed virtual link") from None


def load_vnrs(path) -> list[VirtualNetworkRequest]:
    """Read a request stream in save_vnrs's format; a bad line raises naming ``path:line``.

    Within one call, cpu-demand lines with equal raw text yield one shared
    float, and virtual-link lines with equal raw text one shared ``(a, b, bw)``
    tuple. Each kind has its own table, so equal text is parsed and checked
    once per kind, a line accepted as one kind is still checked as the other,
    and ``-0.0`` stays apart from ``0.0``; validate_vnr runs on every request.
    """
    path = str(path)
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        next_line, read_section = _line_reader(path, fh)
        line_no, header = next_line("request count")
        try:
            (count,) = (int(x) for x in header)
        except ValueError:
            raise ParseError(path, line_no, "first line must be the request count") from None
        if count < 0:
            raise ParseError(path, line_no, "request count must be non-negative")

        stream = []
        seen_ids: set[int] = set()
        # what each raw cpu-demand line and each raw virtual-link line read so far parsed to
        demand_of: dict[str, float] = {}
        link_of: dict[str, tuple[int, int, float]] = {}
        for _ in range(count):
            header_line, fields = next_line("request header")
            if len(fields) != 5:
                raise ParseError(
                    path, header_line, "request header must be '<id> <t_s> <t_e> <nodes> <links>'"
                )
            try:
                vnr_id = int(fields[0])
                t_s, t_e = _finite(path, header_line, fields[1]), _finite(path, header_line, fields[2])
                n, m = int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError(path, header_line, "malformed request header") from None
            if m < 0:
                raise ParseError(path, header_line, "virtual link count must be non-negative")
            if vnr_id in seen_ids:
                raise ParseError(path, header_line, f"duplicate request id {vnr_id}")
            seen_ids.add(vnr_id)
            demands = read_section(n, "cpu demand", demand_of, _cpu_demand)
            links = read_section(m, "virtual link", link_of, _virtual_link)
            vnr = VirtualNetworkRequest(vnr_id, tuple(demands), tuple(links), t_s, t_e)
            try:
                validate_vnr(vnr)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{header_line}: {exc}") from None
            if stream and t_s < stream[-1].t_s:
                raise ValidationError(f"{path}:{header_line}: request stream is not sorted by arrival time")
            stream.append(vnr)
        next_line(None)
    return stream

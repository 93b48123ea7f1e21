"""Reference answers computed from the generated catalog document alone.

Nothing here imports ``reqlattice``: projections are brute-force scope
scans over the plain JSON requirements, strongest sets come from a
reachability walk over the declared refinement edges.  The checkers
compare program output with these references and return a short reason
on mismatch, or ``None`` when the output is right.

An ``Oracle`` belongs to one version of a document and memoises every
answer, so each distinct question is answered once per catalog version.
"""

from __future__ import annotations

import re

from catgen import Doc


def _covers(scope, entity_id: str) -> bool:
    return scope == "all" or entity_id in scope


def _label(ids) -> str:
    ids = sorted(ids)
    return ", ".join(ids) if ids else "(none)"


class Oracle:
    def __init__(self, doc: Doc) -> None:
        self.jids = [j["id"] for j in doc.jurisdictions]
        self.pids = [p["id"] for p in doc.products]
        self.regulations = {r["id"]: r["jurisdictions"] for r in doc.regulations}
        self.requirements = {rid: dict(req) for rid, req in doc.requirements.items()}
        self.children: dict[str, list[str]] = {rid: [] for rid in self.requirements}
        for stronger, weaker in doc.edges:
            self.children[stronger].append(weaker)
        self.answers: dict = {}

    def _memo(self, key, compute):
        if key not in self.answers:
            self.answers[key] = compute()
        return self.answers[key]

    # -- set constructions ------------------------------------------------

    def projection(self, pid: str, jid: str, kind: str | None = None) -> frozenset[str]:
        return self._memo(("projections",), self._projections)[(pid, jid, kind)]

    def _projections(self) -> dict:
        """Every (product, jurisdiction, kind) projection, from one scan that
        expands each requirement's scopes."""
        buckets: dict = {(p, j, k): set() for p in self.pids for j in self.jids for k in (None, "RL", "RFN")}
        for rid, req in self.requirements.items():
            scope = req["applies_to_products"]
            pids = self.pids if scope == "all" else scope
            scope = req["applies_to_jurisdictions"]
            jids = self.jids if scope == "all" else scope
            for p in pids:
                for j in jids:
                    buckets[(p, j, None)].add(rid)
                    buckets[(p, j, req["kind"])].add(rid)
        return {key: frozenset(ids) for key, ids in buckets.items()}

    def product_union(self, pid: str) -> frozenset[str]:
        return self._memo(
            ("union", pid),
            lambda: frozenset().union(*(self.projection(pid, j) for j in self.jids)),
        )

    def jurisdiction_rl(self, jid: str) -> frozenset[str]:
        return self._memo(
            ("rl", jid),
            lambda: frozenset().union(*(self.projection(p, jid, "RL") for p in self.pids)),
        )

    def rl_min(self, jid: str) -> frozenset[str]:
        return self._memo(
            ("min", jid),
            lambda: frozenset.intersection(*(self.projection(p, jid, "RL") for p in self.pids)),
        )

    def global_union(self) -> frozenset[str]:
        return self._memo(
            ("global",), lambda: frozenset().union(*(self.product_union(p) for p in self.pids))
        )

    def partition(self, pid: str, kind: str) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
        def compute():
            parts = {j: self.projection(pid, j, kind) for j in self.jids}
            general = frozenset.intersection(*parts.values())
            return general, {j: s - general for j, s in parts.items()}

        return self._memo(("partition", pid, kind), compute)

    def shared(self) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
        def compute():
            per = {
                j: frozenset(r for r, scope in self.regulations.items() if _covers(scope, j))
                for j in self.jids
            }
            core = frozenset.intersection(*per.values())
            return core, {j: regs - core for j, regs in per.items()}

        return self._memo(("shared",), compute)

    # -- refinement -------------------------------------------------------

    def below(self, rid: str) -> frozenset[str]:
        """Every requirement reachable from `rid` over one or more edges."""

        def compute():
            seen: set[str] = set()
            stack = list(self.children[rid])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(self.children[node])
            return frozenset(seen)

        return self._memo(("below", rid), compute)

    def strongest(self, members: frozenset[str]) -> frozenset[str]:
        """Members that no other member reaches: one walk from all members."""

        def compute():
            dominated: set[str] = set()
            stack = [c for m in members for c in self.children[m]]
            while stack:
                node = stack.pop()
                if node not in dominated:
                    dominated.add(node)
                    stack.extend(self.children[node])
            return members - dominated

        return self._memo(("strongest", members), compute)

    # -- analyses ---------------------------------------------------------

    def classify(self) -> dict:
        core, complements = self.shared()
        if not any(complements.values()):
            case, advice = "IDENTICAL", "SINGLE_COMPONENT"
        elif not core:
            case, advice = "DISJOINT", "TRACE_SEPARATELY"
        else:
            case, advice = "PARTIAL", "COMPONENT_SPLIT"
        return {
            "case": case,
            "core_size": len(core),
            "per_jurisdiction_sizes": {j: len(complements[j]) for j in sorted(complements)},
            "recommendation": advice,
        }

    def impact(self, reg: str) -> dict:
        core, complements = self.shared()
        affected = sorted(
            rid
            for rid, req in self.requirements.items()
            if req["kind"] == "RL" and reg in req["derived_from"]
        )
        products = sorted(
            p
            for p in self.pids
            if any(_covers(self.requirements[r]["applies_to_products"], p) for r in affected)
        )
        in_core = reg in core
        return {
            "regulation": reg,
            "in_core": in_core,
            "scope": "GLOBAL" if in_core else "COUNTRY_SPECIFIC",
            "jurisdictions": [] if in_core else sorted(j for j in self.jids if reg in complements[j]),
            "affected_requirements": affected,
            "affected_products": products,
        }

    def coverage_warnings(self) -> list[tuple[str, list[str]]]:
        """(code, ids) of every validation warning the catalog should raise."""

        def compute():
            out = []
            for rid in sorted(self.requirements):
                req = self.requirements[rid]
                if req["kind"] != "RL":
                    continue
                covering: set[str] = set()
                for reg in req["derived_from"]:
                    scope = self.regulations[reg]
                    covering |= set(self.jids if scope == "all" else scope)
                scope = req["applies_to_jurisdictions"]
                applicable = set(self.jids if scope == "all" else scope)
                uncovered = sorted(applicable - covering)
                if uncovered:
                    out.append(("RL_COVERAGE", [rid, *uncovered]))
            return out

        return self._memo(("warnings",), compute)

    def reuse(self) -> tuple[dict, frozenset[str], set[frozenset[str]]]:
        def compute():
            minima = {j: self.rl_min(j) for j in self.jids}
            shared = frozenset.intersection(*minima.values())
            clusters: dict = {}
            for rid in frozenset().union(*minima.values()):
                req = self.requirements[rid]
                key = (str(req["applies_to_products"]), str(req["applies_to_jurisdictions"]))
                clusters.setdefault(key, set()).add(rid)
            return minima, shared, {frozenset(c) for c in clusters.values()}

        return self._memo(("reuse",), compute)

    # -- views ------------------------------------------------------------

    def view(self, kind: str, focus: str | None) -> tuple[list[str], set[tuple[str, str]]]:
        """Expected node labels (sorted) and edges as (label, label) pairs."""
        return self._memo(("view", kind, focus), lambda: _VIEWS[kind](self, focus))


def _country_view(o: Oracle, jid: str):
    core, complements = o.shared()
    nodes = {
        "core": "Shared regulations: " + _label(core),
        "complement": f"Jurisdiction-only regulations [{jid}]: " + _label(complements[jid]),
    }
    edges = []
    for pid in o.pids:
        for kind, tag in (("RL", "rl"), ("RFN", "rfn")):
            general, specific = o.partition(pid, kind)
            nodes[f"{tag}_g_{pid}"] = f"{kind} general [{pid}]: " + _label(general)
            nodes[f"{tag}_s_{pid}"] = f"{kind} specific [{pid}, {jid}]: " + _label(specific[jid])
        edges.append(("core", f"rl_g_{pid}"))
        edges.append(("complement", f"rl_s_{pid}"))
    return nodes, edges


def _product_view(o: Oracle, pid: str):
    nodes = {"union": f"All requirements [{pid}]: " + _label(o.product_union(pid))}
    edges = []
    for jid in o.jids:
        for kind in ("RL", "RFN"):
            nodes[(kind, jid)] = f"{kind} [{pid}, {jid}]: " + _label(o.projection(pid, jid, kind))
            edges.append(((kind, jid), "union"))
    return nodes, edges


def _global_view(o: Oracle, _focus):
    nodes = {"star": "Strongest overall: " + _label(o.strongest(o.global_union()))}
    edges = []
    for jid in o.jids:
        nodes[("min", jid)] = f"RL minimum [{jid}]: " + _label(o.rl_min(jid))
        strongest = o.strongest(o.jurisdiction_rl(jid))
        nodes[("star", jid)] = f"RL strongest [{jid}]: " + _label(strongest)
        edges.append((("star", jid), "star"))
        for pid in o.pids:
            nodes[(pid, jid)] = f"RL [{pid}, {jid}]: " + _label(o.projection(pid, jid, "RL"))
            edges.append(((pid, jid), ("min", jid)))
            edges.append(((pid, jid), ("star", jid)))
    return nodes, edges


def _as_labels(view):
    nodes, edges = view
    return sorted(nodes.values()), {(nodes[a], nodes[b]) for a, b in edges}


_VIEWS = {
    "country": lambda o, f: _as_labels(_country_view(o, f)),
    "product": lambda o, f: _as_labels(_product_view(o, f)),
    "global": lambda o, f: _as_labels(_global_view(o, f)),
}

_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[label="((?:[^"\\]|\\.)*)"\];$')
_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)";$')


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def check_dot(oracle: Oracle, kind: str, focus: str | None, text: str) -> str | None:
    """Compare a rendered view by node labels and labelled edges.

    Node ids are not compared, so a renaming of ids that keeps the graph
    the same still passes.
    """
    lines = text.split("\n")
    if not lines or not lines[0].startswith("digraph ") or lines[-2:] != ["}", ""]:
        return "dot text is not one digraph"
    labels: dict[str, str] = {}
    edges = set()
    for line in lines[1:-2]:
        node = _NODE.match(line)
        edge = _EDGE.match(line)
        if node:
            labels[_unquote(node.group(1))] = _unquote(node.group(2))
        elif edge:
            edges.add((_unquote(edge.group(1)), _unquote(edge.group(2))))
    try:
        labelled = {(labels[a], labels[b]) for a, b in edges}
    except KeyError as exc:
        return f"edge to an undeclared node {exc}"
    want_nodes, want_edges = oracle.view(kind, focus)
    if sorted(labels.values()) != want_nodes:
        return f"{kind} view node labels differ"
    if labelled != want_edges:
        return f"{kind} view edges differ"
    return None


def check_optimize(oracle: Oracle, base: frozenset[str], payload: dict) -> str | None:
    """`kept` is the strongest set of `base`; every removal has a valid witness."""
    kept = oracle.strongest(base)
    if payload.get("kept") != sorted(kept):
        return "kept set differs"
    removed = payload.get("removed", [])
    if [r["id"] for r in removed] != sorted(base - kept):
        return "removed set differs"
    for entry in removed:
        witness = entry["dominated_by"]
        if witness not in kept or entry["id"] not in oracle.below(witness):
            return f"bad witness {witness} for {entry['id']}"
    return None

"""Composite knowledge bundle attached to node views by the executor."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Tuple

from ..core.data import NodeId
from ..core.exceptions import KnowledgeError


class KnowledgeBundle:
    """A collection of knowledge oracles exposed to algorithms.

    Each oracle object declares a ``knowledge_name`` (one of the identifiers
    in :mod:`repro.core.algorithm`) and implements the corresponding query
    methods.  The bundle simply dispatches; querying an oracle that was not
    granted raises :class:`~repro.core.exceptions.KnowledgeError`, which
    keeps algorithms honest about the knowledge they actually use.
    """

    def __init__(self, *oracles: Any) -> None:
        self._oracles: Dict[str, Any] = {}
        for oracle in oracles:
            name = getattr(oracle, "knowledge_name", None)
            if not name:
                raise KnowledgeError(
                    f"oracle {oracle!r} does not declare a knowledge_name"
                )
            self._oracles[name] = oracle

    def provides(self) -> FrozenSet[str]:
        """Identifiers of the oracles available in this bundle."""
        return frozenset(self._oracles)

    def has(self, name: str) -> bool:
        """True if the bundle provides the oracle ``name``."""
        return name in self._oracles

    def _get(self, name: str) -> Any:
        try:
            return self._oracles[name]
        except KeyError:
            raise KnowledgeError(
                f"knowledge {name!r} was not granted to this run "
                f"(available: {sorted(self._oracles)})"
            ) from None

    def oracle(self, name: str) -> Any:
        """The oracle object registered under ``name``.

        Used by the vectorized decision kernels to verify that the oracle
        they are about to mirror (e.g. a ``meetTime`` oracle backed by the
        trial's committed adversary) has exactly the shape they can
        reproduce.

        Raises:
            KnowledgeError: if the oracle was not granted.
        """
        return self._get(name)

    # ------------------------------------------------------------------ #
    # Dispatch helpers used by NodeView and algorithms
    # ------------------------------------------------------------------ #
    def meet_time(self, node: NodeId, t: int) -> int:
        """``node.meetTime(t)``: next interaction time with the sink after ``t``."""
        return self._get("meetTime").meet_time(node, t)

    def future(self, node: NodeId) -> List[Tuple[int, NodeId]]:
        """``node.future``: the node's future interactions ``(time, peer)``."""
        return self._get("future").future(node)

    def underlying_graph(self):
        """The underlying graph G-bar as a read-only adjacency mapping."""
        return self._get("underlying_graph").underlying_graph()

    def bfs_tree(self, root: NodeId):
        """The memoized ``(parent, children)`` BFS spanning tree of G-bar."""
        return self._get("underlying_graph").bfs_tree(root)

    def full_sequence(self):
        """The entire interaction sequence (full knowledge)."""
        return self._get("full_knowledge").full_sequence()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnowledgeBundle({sorted(self._oracles)})"

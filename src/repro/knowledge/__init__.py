"""Knowledge oracles (``DODA(i1, i2, ...)`` in the paper).

A knowledge oracle is a function made available to every node that reveals
information about the future of the dynamic graph or about its topology.
The executor attaches a :class:`~repro.knowledge.base.KnowledgeBundle` to the
node views it hands to algorithms; the bundle advertises which oracles it
provides so that an algorithm's declared requirements can be checked before
a run starts.
"""

from .base import KnowledgeBundle
from .full import FullKnowledge
from .future import FutureKnowledge
from .meet_time import MeetTimeKnowledge
from .underlying_graph import UnderlyingGraphKnowledge, complete_footprint

__all__ = [
    "FullKnowledge",
    "FutureKnowledge",
    "KnowledgeBundle",
    "MeetTimeKnowledge",
    "UnderlyingGraphKnowledge",
    "complete_footprint",
]

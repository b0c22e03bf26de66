"""Reading and writing contact traces.

Real deployments (the body-area and vehicular networks the paper's
introduction motivates) record contacts as CSV-like event logs.  This module
converts between such logs and the library's interaction-sequence model so
that downstream users can replay their own traces through the executor:

* :func:`load_contact_csv` — read ``time,u,v`` rows (header optional),
  serialise simultaneous contacts deterministically, and return a
  :class:`~repro.graph.dynamic_graph.DynamicGraph`;
* :func:`save_contact_csv` — write a dynamic graph back to the same format;
* :func:`sequence_from_contact_events` — the in-memory equivalent of the
  loader, used by both the CSV path and programmatic callers.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from ..core.interaction import InteractionSequence
from .dynamic_graph import DynamicGraph

ContactEvent = Tuple[float, NodeId, NodeId]


def sequence_from_contact_events(
    events: Iterable[ContactEvent],
) -> InteractionSequence:
    """Convert timestamped contact events to a pairwise interaction sequence.

    Events are sorted by timestamp; events sharing a timestamp are ordered
    deterministically by their endpoints (the standard serialisation from
    evolving graphs to the paper's one-interaction-per-step model).  The
    original timestamps are discarded — in the paper's model the time of an
    interaction *is* its index.
    """
    ordered = sorted(
        ((float(t), u, v) for t, u, v in events),
        key=lambda event: (event[0], repr(event[1]), repr(event[2])),
    )
    pairs = [(u, v) for _, u, v in ordered]
    return InteractionSequence.from_pairs(pairs)


def load_contact_csv(
    source: Union[str, Path, TextIO],
    sink: NodeId,
    delimiter: str = ",",
    nodes: Optional[Sequence[NodeId]] = None,
) -> DynamicGraph:
    """Load a contact trace from a CSV file or file-like object.

    The expected columns are ``time, u, v`` (a header row whose first field
    is not numeric is skipped).  Node identifiers are kept as strings unless
    they parse as integers.

    Args:
        source: path or open text file.
        sink: identifier of the sink node (must appear in the trace or in
            ``nodes``).
        delimiter: CSV delimiter.
        nodes: optional explicit node set (e.g. to include nodes that never
            interact); defaults to the nodes appearing in the trace plus the
            sink.

    Raises:
        ConfigurationError: if a row is malformed or the sink is unknown.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_contact_csv(handle, sink, delimiter=delimiter, nodes=nodes)

    events: List[ContactEvent] = []
    reader = csv.reader(source, delimiter=delimiter)
    for row_number, row in enumerate(reader):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 3:
            raise ConfigurationError(
                f"row {row_number} has {len(row)} columns, expected time,u,v"
            )
        time_cell = row[0].strip()
        if row_number == 0 and not _is_number(time_cell):
            continue  # header row
        if not _is_number(time_cell):
            raise ConfigurationError(
                f"row {row_number}: time {time_cell!r} is not numeric"
            )
        events.append(
            (float(time_cell), _parse_node(row[1]), _parse_node(row[2]))
        )

    sequence = sequence_from_contact_events(events)
    node_set = set(sequence.nodes())
    node_set.add(sink)
    if nodes is not None:
        missing = node_set - set(nodes)
        if missing:
            raise ConfigurationError(
                f"trace references nodes outside the declared node set: "
                f"{sorted(map(repr, missing))}"
            )
        node_list: List[NodeId] = list(nodes)
    else:
        node_list = sorted(node_set, key=repr)
    return DynamicGraph.create(node_list, sink, sequence)


def save_contact_csv(
    graph: DynamicGraph, destination: Union[str, Path, TextIO]
) -> None:
    """Write a dynamic graph as ``time,u,v`` CSV rows (with a header)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            save_contact_csv(graph, handle)
            return
    writer = csv.writer(destination)
    writer.writerow(["time", "u", "v"])
    for interaction in graph.sequence:
        writer.writerow([interaction.time, interaction.u, interaction.v])


def _parse_node(cell: str) -> NodeId:
    """Node identifiers: integers when they look like integers, else strings."""
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True

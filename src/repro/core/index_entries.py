"""Computing IndexEntries rows for documents.

Every write computes "the index entry changes for the ... documents"
(paper section IV-D2 step 4) from the cached index definitions, keeping
all indexes strongly consistent with the data.

Row-key layout (relative to the database's directory prefix)::

    index_id (4 bytes BE) || parent_collection (encoded path)
                          || values (order-preserving encodings)
                          || document name (encoded path)

Including the parent collection path scopes every scan to exactly one
collection, and the trailing document name makes the key unique and the
two-phase-commit lock granular ("IndexEntries rows include the unique
document name", section IV-D2 step 6). The row value carries the document
path segments so the executor can fetch documents without decoding keys.

Indexing flattens maps into dotted paths and arrays into per-element
entries (section V-B2), so a map/array field costs as many entries as it
has leaves — exactly the write-amplification the Fig. 10 experiment
measures.
"""

from __future__ import annotations

import itertools
import math
import struct

from repro.errors import InvalidArgument
from repro.core.encoding import (
    ASCENDING,
    COMPLEMENT,
    DESCENDING,
    encode_doc_name,
    encode_value,
    join_array,
)
from repro.core.indexes import IndexDefinition, IndexMode, IndexRegistry, IndexState
from repro.core.path import Path
from repro.core.values import get_field


def iter_indexable_fields(data: dict, prefix: str = ""):
    """Every field path a document exposes to automatic indexing.

    Maps are flattened into dotted leaf paths (paper section V-B2), and
    each non-root map node is *also* indexed as a whole so that equality
    and ordering on a map-valued field work (production semantics).
    """
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield path, value
            yield from iter_indexable_fields(value, path)
        else:
            yield path, value

#: Cap on index entries per document (production limit is 40,000).
MAX_ENTRIES_PER_DOCUMENT = 40_000


def index_id_prefix(index_id: int) -> bytes:
    """The 4-byte big-endian key prefix of one index."""
    return struct.pack(">I", index_id)


def entry_key(
    index_id: int,
    parent: Path,
    encoded_values: bytes,
    doc_path: Path,
    name_direction: str = ASCENDING,
) -> bytes:
    """Build one IndexEntries row key.

    The trailing document name is encoded with the direction of the
    index's *last* field, so the index's natural tiebreak matches the
    query semantics (orderBy(f, desc) implies name desc).
    """
    return (
        index_id_prefix(index_id)
        + encode_doc_name(parent.segments)
        + encoded_values
        + encode_doc_name(doc_path.segments, name_direction)
    )


def scan_prefix(index_id: int, parent: Path, encoded_values: bytes = b"") -> bytes:
    """The shared key prefix of all entries for one index + collection."""
    return index_id_prefix(index_id) + encode_doc_name(parent.segments) + encoded_values


def _too_many(doc_path: Path) -> InvalidArgument:
    return InvalidArgument(
        f"document {doc_path} produces more than "
        f"{MAX_ENTRIES_PER_DOCUMENT} index entries"
    )


def _refuse(registry: IndexRegistry, group: str, path: str, count: int, doc_path: Path):
    """Raise for a new leaf that finds ``count`` entries, one short of the
    cap or at it: its ascending id is allocated already, and its
    descending one too when only its descending entry is one too many."""
    if count < MAX_ENTRIES_PER_DOCUMENT:
        registry.auto_index(group, path, DESCENDING)
    raise _too_many(doc_path)


def _composite_parts(definition: IndexDefinition, data: dict) -> list[list[bytes]] | tuple:
    """Per indexed field, the encodings a document contributes to one
    composite index: its value in the field's direction, or each distinct
    element of a non-empty array for an array-contains field — empty if
    the document lacks any indexed field (documents missing a field do
    not appear in that index)."""
    parts = []
    for index_field in definition.fields:
        present, value = get_field(data, index_field.field_path)
        if not present:
            return ()
        if index_field.mode is IndexMode.CONTAINS:
            if not isinstance(value, list) or not value:
                return ()
            # reprolint: disable=hot-loop-alloc -- an array-contains field's part is its distinct elements; composites have a handful of fields
            part = list(dict.fromkeys(map(encode_value, value)))
        elif index_field.direction == DESCENDING:
            # reprolint: disable=hot-loop-alloc -- a field's one encoding is its part, the sequence itertools.product takes
            part = [encode_value(value).translate(COMPLEMENT)]
        else:
            # reprolint: disable=hot-loop-alloc -- a field's one encoding is its part, the sequence itertools.product takes
            part = [encode_value(value)]
        parts.append(part)
    return parts


def composite_entry_values(definition: IndexDefinition, data: dict) -> list[bytes]:
    """The encoded value-tuples a document contributes to one composite
    index — empty if the document lacks any indexed field.
    """
    parts = _composite_parts(definition, data)
    return [b"".join(combo) for combo in itertools.product(*parts)] if parts else []


def _plan(registry, group, composites, doc_path, data):
    """One document's side of a write plan.

    Visits every non-exempt leaf in document order, allocating its
    automatic index ids as it goes, and encodes it once, ascending; an
    array is encoded from its elements' encodings, so each element is
    encoded once too. Returns:

    - ``leaves``: ``{(path, encoding): (asc id, desc id, contains id |
      None, contains elements first seen here)}``; a repeated pair adds
      nothing, as its repeated row keys would;
    - the distinct element encodings of every array path;
    - each live composite's per-field parts.

    Raises ``InvalidArgument`` at the entry that first exceeds
    ``MAX_ENTRIES_PER_DOCUMENT``, before any later id is allocated.
    """
    leaves = {}
    elements: dict[str, set[bytes]] = {}
    if data is None:
        return leaves, elements, [() for _ in composites]
    is_exempt, auto_index = registry.is_exempt, registry.auto_index
    last = MAX_ENTRIES_PER_DOCUMENT - 1
    extra = 0  # entries besides each distinct leaf's ascending and descending one
    for path, value in iter_indexable_fields(data):
        if is_exempt(group, path):
            continue
        asc_id = auto_index(group, path, ASCENDING).index_id
        if not isinstance(value, list):
            leaf = path, encode_value(value)
            if 2 * len(leaves) + extra >= last and leaf not in leaves:
                _refuse(registry, group, path, 2 * len(leaves) + extra, doc_path)
            leaves.setdefault(leaf, (asc_id, auto_index(group, path, DESCENDING).index_id, None, ()))
        else:
            element_raws = list(map(encode_value, value))
            leaf = path, join_array(element_raws)
            if 2 * len(leaves) + extra >= last and leaf not in leaves:
                _refuse(registry, group, path, 2 * len(leaves) + extra, doc_path)
            desc_id = auto_index(group, path, DESCENDING).index_id
            contains_id = registry.auto_contains_index(group, path).index_id
            seen = elements.setdefault(path, set())
            first_seen = list(itertools.filterfalse(seen.__contains__, dict.fromkeys(element_raws)))
            seen.update(first_seen)
            leaves.setdefault(leaf, (asc_id, desc_id, contains_id, first_seen))
            if 2 * len(leaves) + (extra := extra + len(first_seen)) > MAX_ENTRIES_PER_DOCUMENT:
                raise _too_many(doc_path)
    count = 2 * len(leaves) + extra
    parts = []
    for definition in composites:
        fields = _composite_parts(definition, data)
        parts.append(fields)
        if fields:
            count += math.prod(map(len, fields))
            if count > MAX_ENTRIES_PER_DOCUMENT:
                raise _too_many(doc_path)
    return leaves, elements, parts


def diff_entries(
    registry: IndexRegistry,
    doc_path: Path,
    old: dict | None,
    new: dict | None,
) -> tuple[list[bytes], list[tuple[bytes, tuple[str, ...]]]]:
    """The IndexEntries changes of one document write (step 4): (keys to
    delete, (key, payload) pairs to insert).

    One write plan per document: each leaf of the old and of the new
    document is encoded once, and row keys are built only for leaves
    whose encoded bytes differ between the two — never by Python ``==``,
    under which ``True == 1`` although their keys differ. Composites are
    rebuilt only when one of their fields' encodings changed. Deletes
    follow the old document's entry order and inserts the new one's:
    automatic entries leaf by leaf (ascending, descending, then array
    elements), then composites. Either side may be None (create, delete).
    """
    parent = doc_path.parent()
    assert parent is not None  # document paths always have a parent
    group = parent.id
    segments = doc_path.segments
    scope = encode_doc_name(parent.segments)
    name = encode_doc_name(segments)
    name_desc = name.translate(COMPLEMENT)
    # CREATING composites are maintained (writes conform to an on-going
    # backfill); DELETING ones are not (writes conform to a backremoval)
    composites = [
        d for d in registry.composites_for(group) if d.state is not IndexState.DELETING
    ]
    old_leaves, old_elements, old_parts = _plan(registry, group, composites, doc_path, old)
    new_leaves, new_elements, new_parts = _plan(registry, group, composites, doc_path, new)

    def leaf_keys(leaves, other_leaves, other_elements):
        keys = []
        for leaf in itertools.filterfalse(other_leaves.__contains__, leaves):
            asc_id, desc_id, contains_id, first_seen = leaves[leaf]
            path, raw = leaf
            keys.append(asc_id.to_bytes(4, "big") + scope + raw + name)
            keys.append(
                desc_id.to_bytes(4, "big") + scope + raw.translate(COMPLEMENT) + name_desc
            )
            if first_seen:
                prefix = contains_id.to_bytes(4, "big") + scope
                kept = other_elements.get(path, ())
                # reprolint: disable=hot-loop-alloc -- one key per array element the other side lacks; only changed arrays reach here
                keys += [prefix + element + name for element in first_seen if element not in kept]
        return keys

    to_delete = leaf_keys(old_leaves, new_leaves, new_elements)
    inserted = leaf_keys(new_leaves, old_leaves, old_elements)
    for definition, old_fields, new_fields in zip(composites, old_parts, new_parts):
        if old_fields != new_fields:
            prefix = definition.index_id.to_bytes(4, "big") + scope
            suffix = name if definition.fields[-1].direction == ASCENDING else name_desc
            old_keys = _composite_keys(old_fields, prefix, suffix)
            new_keys = _composite_keys(new_fields, prefix, suffix)
            # reprolint: disable=hot-loop-alloc -- the keys one changed composite drops; unchanged composites never reach here
            to_delete += [key for key in old_keys if key not in new_keys]
            # reprolint: disable=hot-loop-alloc -- the keys one changed composite gains; unchanged composites never reach here
            inserted += [key for key in new_keys if key not in old_keys]
    return to_delete, [(key, segments) for key in inserted]


def _composite_keys(parts: list[list[bytes]], prefix: bytes, suffix: bytes) -> dict:
    """One composite's row keys for a document, in order."""
    if not parts:
        return {}
    return dict.fromkeys(
        prefix + b"".join(combo) + suffix for combo in itertools.product(*parts)
    )


def compute_document_entries(
    registry: IndexRegistry,
    doc_path: Path,
    data: dict,
) -> dict[bytes, tuple[str, ...]]:
    """All IndexEntries row keys this document should have right now:
    ``{row_key: doc_segments}``, the write plan of creating it. The
    validator recomputes every document with it, so it and the commit
    share one derivation.
    """
    return dict(diff_entries(registry, doc_path, None, data)[1])

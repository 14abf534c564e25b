"""An order-preserving B+tree map from byte-string keys to values.

Spanner tables, like Bigtable, "support efficient, in-order linear scans by
key" (paper section IV-D1); this is the data structure that provides them
in our simulation. Leaves are linked for fast range iteration; interior
nodes hold separator keys.

The implementation favours clarity over micro-optimization but keeps the
right asymptotics: O(log n) point operations, O(log n + k) range scans.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.values: list[Any] = []
        self.next: Optional[_Leaf] = None
        self.prev: Optional[_Leaf] = None


class _Interior:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] covers keys < keys[i]; children[-1] covers the rest
        self.keys: list[bytes] = []
        self.children: list[Any] = []


class BTreeMap:
    """Sorted map over ``bytes`` keys with linked-leaf range scans."""

    __slots__ = ("_order", "_root", "_size")

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("B+tree order must be at least 4")
        self._order = order
        self._root: Any = _Leaf()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __getitem__(self, key: bytes) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: bytes, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: bytes) -> None:
        if not self.delete(key):
            raise KeyError(key)

    def __iter__(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    # -- point operations ---------------------------------------------------

    def _find_leaf(self, key: bytes) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def leaf_at(self, key: bytes) -> tuple[_Leaf, int]:
        """The leaf where ``key`` belongs and the index of the first key
        >= ``key`` in it (which may be one past its end).

        A start position for callers that walk the linked leaves
        themselves: ``leaf.keys``/``leaf.values`` in order, then
        ``leaf.next`` (or ``leaf.prev`` from ``index - 1`` in reverse).
        """
        leaf = self._find_leaf(key)
        return leaf, bisect.bisect_left(leaf.keys, key)

    def get(self, key: bytes, default: Any = None) -> Any:
        """The value for a key, or the default."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def put(self, key: bytes, value: Any) -> bool:
        """Insert or replace. Returns True if the key was newly inserted."""
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        # parallel node/index stacks: one list append per level instead of
        # a (node, idx) tuple allocation on the hot descent loop
        path_nodes: list[_Interior] = []
        path_idx: list[int] = []
        node = self._root
        while isinstance(node, _Interior):
            idx = bisect.bisect_right(node.keys, key)
            path_nodes.append(node)
            path_idx.append(idx)
            node = node.children[idx]

        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value
            return False
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self._size += 1

        if len(node.keys) > self._order:
            self._split_leaf(node, path_nodes, path_idx)
        return True

    def _split_leaf(
        self, leaf: _Leaf, path_nodes: list[_Interior], path_idx: list[int]
    ) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        self._insert_into_parent(leaf, right.keys[0], right, path_nodes, path_idx)

    def _insert_into_parent(
        self,
        left: Any,
        separator: bytes,
        right: Any,
        path_nodes: list[_Interior],
        path_idx: list[int],
    ) -> None:
        if not path_nodes:
            new_root = _Interior()
            new_root.keys = [separator]
            new_root.children = [left, right]
            self._root = new_root
            return
        parent = path_nodes.pop()
        idx = path_idx.pop()
        parent.keys.insert(idx, separator)
        parent.children.insert(idx + 1, right)
        if len(parent.children) > self._order:
            self._split_interior(parent, path_nodes, path_idx)

    def _split_interior(
        self, node: _Interior, path_nodes: list[_Interior], path_idx: list[int]
    ) -> None:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Interior()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_into_parent(node, separator, right, path_nodes, path_idx)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``. Returns True if it was present.

        Uses lazy deletion structure-wise: underfull leaves are tolerated
        and empty leaves are unlinked. This keeps scans correct and point
        ops O(log n); tablets in this simulation are rebuilt on split, so
        aggressive rebalancing buys nothing.
        """
        path_nodes: list[_Interior] = []
        path_idx: list[int] = []
        node = self._root
        while isinstance(node, _Interior):
            idx = bisect.bisect_right(node.keys, key)
            path_nodes.append(node)
            path_idx.append(idx)
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False
        node.keys.pop(idx)
        node.values.pop(idx)
        self._size -= 1
        if not node.keys and path_nodes:
            self._unlink_empty_leaf(node, path_nodes, path_idx)
        return True

    def _unlink_empty_leaf(
        self, leaf: _Leaf, path_nodes: list[_Interior], path_idx: list[int]
    ) -> None:
        if leaf.prev is not None:
            leaf.prev.next = leaf.next
        if leaf.next is not None:
            leaf.next.prev = leaf.prev
        parent = path_nodes[-1]
        idx = path_idx[-1]
        parent.children.pop(idx)
        if idx > 0:
            parent.keys.pop(idx - 1)
        elif parent.keys:
            parent.keys.pop(0)
        # collapse chains of single-child interiors up the path
        node: Any = parent
        for level in range(len(path_nodes) - 2, -1, -1):
            if len(node.children) == 0:
                ancestor = path_nodes[level]
                akeys = ancestor.keys
                ancestor.children.pop(path_idx[level])
                if path_idx[level] > 0:
                    akeys.pop(path_idx[level] - 1)
                elif akeys:
                    akeys.pop(0)
                node = ancestor
            else:
                break
        root = self._root
        while isinstance(root, _Interior) and len(root.children) == 1:
            root = root.children[0]
        if isinstance(root, _Interior) and len(root.children) == 0:
            root = _Leaf()
        self._root = root

    # -- range operations ----------------------------------------------------

    def items(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        reverse: bool = False,
        start_inclusive: bool = True,
        end_inclusive: bool = False,
    ) -> Iterator[tuple[bytes, Any]]:
        """Iterate (key, value) pairs over ``[start, end)`` by default.

        Bounds of ``None`` mean unbounded on that side. ``reverse=True``
        yields in descending key order over the same range.
        """
        if reverse:
            yield from self._items_reverse(start, end, start_inclusive, end_inclusive)
            return
        if start is None:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(start)
            idx = (
                bisect.bisect_left(leaf.keys, start)
                if start_inclusive
                else bisect.bisect_right(leaf.keys, start)
            )
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if end is not None:
                    if end_inclusive:
                        if key > end:
                            return
                    elif key >= end:
                        return
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next
            idx = 0

    def _items_reverse(
        self,
        start: Optional[bytes],
        end: Optional[bytes],
        start_inclusive: bool,
        end_inclusive: bool,
    ) -> Iterator[tuple[bytes, Any]]:
        if end is None:
            leaf = self._rightmost_leaf()
            idx = len(leaf.keys) - 1
        else:
            leaf = self._find_leaf(end)
            if end_inclusive:
                idx = bisect.bisect_right(leaf.keys, end) - 1
            else:
                idx = bisect.bisect_left(leaf.keys, end) - 1
            if idx < 0:
                leaf = leaf.prev
                idx = len(leaf.keys) - 1 if leaf is not None else -1
        while leaf is not None:
            while idx >= 0:
                key = leaf.keys[idx]
                if start is not None:
                    if start_inclusive:
                        if key < start:
                            return
                    elif key <= start:
                        return
                yield key, leaf.values[idx]
                idx -= 1
            leaf = leaf.prev
            idx = len(leaf.keys) - 1 if leaf is not None else -1

    def keys(self, **kwargs) -> Iterator[bytes]:
        """Keys over an optional range, in order."""
        for key, _ in self.items(**kwargs):
            yield key

    def values(self, **kwargs) -> Iterator[Any]:
        """Values over an optional range, in key order."""
        for _, value in self.items(**kwargs):
            yield value

    def first_key(self) -> Optional[bytes]:
        """The smallest key, or None when empty."""
        leaf = self._leftmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.next
        return leaf.keys[0] if leaf is not None and leaf.keys else None

    def last_key(self) -> Optional[bytes]:
        """The largest key, or None when empty."""
        leaf = self._rightmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.prev
        return leaf.keys[-1] if leaf is not None and leaf.keys else None

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[0]
        return node

    def _rightmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[-1]
        return node

    def key_at_fraction(self, fraction: float) -> Optional[bytes]:
        """Approximate key at the given fraction of the keyspace by rank.

        Used by load-based splitting to find a midpoint. O(n) worst case
        but only invoked on (rare) split decisions.
        """
        if self._size == 0:
            return None
        target = min(self._size - 1, max(0, int(self._size * fraction)))
        for i, key in enumerate(self):
            if i == target:
                return key
        return None


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()

"""Flat simulated memory map with named pages.

The fuzzer's measurement harness places gadget code "in a dedicated page
... between a special prolog and epilog" and points all memory operands
at "a pre-allocated writable data page". This module provides those
pages, address allocation, and bounds checks.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_SIZE = 4096


@dataclass(frozen=True)
class Page:
    """One mapped page: base address, size and protection."""

    name: str
    base: int
    size: int = PAGE_SIZE
    writable: bool = True
    executable: bool = False

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    @property
    def end(self) -> int:
        return self.base + self.size


class MemoryMap:
    """Allocates non-overlapping pages in a flat address space."""

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._pages: dict[str, Page] = {}

    def map_page(self, name: str, size: int = PAGE_SIZE, writable: bool = True,
                 executable: bool = False) -> Page:
        """Map a new page; size is rounded up to a page multiple."""
        if name in self._pages:
            raise ValueError(f"page {name!r} already mapped")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        size = ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        page = Page(name=name, base=self._next, size=size,
                    writable=writable, executable=executable)
        self._pages[name] = page
        self._next += size + PAGE_SIZE  # guard gap between pages
        return page

    def page(self, name: str) -> Page:
        """Look up a mapped page by name."""
        try:
            return self._pages[name]
        except KeyError as exc:
            raise KeyError(f"page {name!r} is not mapped") from exc

    def page_of(self, address: int) -> Page | None:
        """The page containing ``address``, or None if unmapped."""
        for page in self._pages.values():
            if page.contains(address):
                return page
        return None

    def check_write(self, address: int) -> None:
        """Raise ``PermissionError`` unless ``address`` is writable.

        Runs on every simulated store, so it tests the page bounds
        inline rather than through :meth:`page_of`.
        """
        for page in self._pages.values():
            base = page.base
            if base <= address < base + page.size:
                if not page.writable:
                    raise PermissionError(
                        f"write to read-only page {page.name!r} at "
                        f"{address:#x}")
                return
        raise PermissionError(f"write to unmapped address {address:#x}")

    @property
    def pages(self) -> list[Page]:
        return list(self._pages.values())

#!/usr/bin/env python3
"""Turns ci/prof/heap.c's output into a table of the live heap at its peak.

    heap.py BINARY HEAP [--top N]

Each line of HEAP is one allocating stack live at the peak: bytes, blocks,
then return addresses, leaf first, as hex offsets into BINARY. Stacks are
symbolised with `addr2line -i` (report.symbolise), so inlined functions
are frames of their own, and grouped by their first frame outside alloc/core/std/hashbrown:
the function that owns the memory, not the `RawVec::grow_one` or
`RawTable::reserve_rehash` that asked for it.
"""

import argparse
import collections
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from report import symbolise  # noqa: E402

# The allocator, the standard library and hashbrown: by source path, since
# addr2line names some inlined frames by their bare name (`alloc`).
LIBRARY = re.compile(r"/library/(alloc|core|std)/|/hashbrown[-/]")


def owner(frames):
    """The first frame, leaf first, outside the library, as `function
    crate/src/file`."""
    for name, where in frames:
        if name != "??" and not LIBRARY.search(where):
            path = re.sub(r"^.*/(crates|vendored)/|^.*/(?=benchmark/)", "", where.split(":")[0])
            return f"{name}  {path}"
    return "(library only)"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("binary")
    p.add_argument("heap")
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args()

    header, stacks = "", []
    for line in open(args.heap):
        if line.startswith("#"):
            header = line[1:].split()
        elif line.strip():
            bytes_, blocks, *pcs = line.split()
            stacks.append((int(bytes_), int(blocks), [int(a, 16) for a in pcs]))
    facts = dict(zip(header[::2], (int(v) for v in header[1::2])))
    if not stacks:
        sys.exit("no live stacks")
    # A return address points after its call; one byte back is inside it.
    frames = symbolise(args.binary, sorted({a - 1 for _, _, pcs in stacks for a in pcs}))

    live = collections.Counter()
    blocks = collections.Counter()
    for n, b, pcs in stacks:
        key = owner([f for a in pcs for f in frames.get(a - 1, [("??", "")])])
        live[key] += n
        blocks[key] += b
    total = sum(live.values())
    mib = 1 << 20
    print(f"peak live heap {facts.get('peak', total) / mib:.2f} MiB; at the copy kept "
          f"{total / mib:.2f} MiB in {len(stacks)} stacks "
          f"({facts.get('unattributed', 0) / mib:.2f} MiB past a full stack table)")
    print(f"\n  {'MiB':>7}  {'share':>6}  {'blocks':>8}  owner (first frame outside alloc/core/std/hashbrown)")
    for key, n in live.most_common(args.top):
        print(f"  {n / mib:7.2f}  {100 * n / total:5.1f} %  {blocks[key]:8d}  {key}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Turns the sampler's output into self / inclusive / callers-of tables.

    report.py BINARY SAMPLES [--top N] [--callers PATTERN]...

Each line of SAMPLES is one stack, leaf first: hex offsets into BINARY, or
@symbol for a leaf outside it (libc). Offsets are symbolised with
`addr2line -i`, so inlined functions appear as frames of their own. Shares
are of all samples taken, the whole process: set-up and teardown included.
"""

import argparse
import collections
import re
import subprocess
import sys

# Frames between the process entry and the benchmark's own main: on every
# stack, so they say nothing in an inclusive table.
SCAFFOLDING = re.compile(
    r"^(std::(rt|panic|panicking|sys::backtrace)::|<&dyn core::ops::function::Fn|"
    r"__rust_begin_short_backtrace|main$|_start$)")


def symbolise(binary, offsets):
    """Maps each offset to its functions, innermost inlined one first."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="\n".join(f"0x{o:x}" for o in offsets),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, current = {}, None
    for i, line in enumerate(out):
        if line.startswith("0x") and ":" not in line:
            current = frames.setdefault(int(line, 16), [])
            rest = i + 1
        elif (i - rest) % 2 == 0:  # function, then file:line
            where = out[i + 1].rsplit("/", 1)[-1].split(" ")[0]
            name = re.sub(r"::h[0-9a-f]{16}$", "", line)
            current.append((name, where))
    return frames


def load(binary, path):
    """Stacks as lists of (function, file:line), leaf first."""
    raw = []
    for line in open(path):
        if not line.startswith("#") and line.strip():
            raw.append(line.split())
    # A return address points after its call; one byte back is inside it.
    offsets = {int(a, 16) - (i > 0) for s in raw for i, a in enumerate(s) if a[0] != "@"}
    frames = symbolise(binary, sorted(offsets))
    stacks = []
    for s in raw:
        stack = []
        for i, a in enumerate(s):
            if a[0] == "@":
                stack.append((f"[libc] {a[1:]}", ""))
            else:
                stack.extend(frames.get(int(a, 16) - (i > 0), [("??", "")]))
        stacks.append(stack)
    return stacks


def table(title, counts, total, top):
    print(f"\n{title}")
    for key, n in counts.most_common(top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {key}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("binary")
    p.add_argument("samples")
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--callers", action="append", default=[], metavar="PATTERN",
                   help="also print who calls the functions matching this regex")
    args = p.parse_args()

    stacks = load(args.binary, args.samples)
    total = len(stacks)
    if not total:
        sys.exit("no samples")
    print(f"{total} samples of {args.binary}")

    self_time = collections.Counter(s[0][0] for s in stacks)
    self_lines = collections.Counter(f"{s[0][0]}  {s[0][1]}" for s in stacks)
    inclusive = collections.Counter(
        f for s in stacks for f in {f for f, _ in s} if not SCAFFOLDING.match(f))
    table("self (the function the sample was in, inlined ones counted as themselves)",
          self_time, total, args.top)
    table("self, by line", self_lines, total, args.top)
    table("inclusive (the function was anywhere on the stack)", inclusive, total, args.top)

    patterns = args.callers or [re.escape(f) for f, _ in self_time.most_common(3)]
    for pattern in patterns:
        chains = collections.Counter()
        for s in stacks:
            hits = [i for i, (f, _) in enumerate(s) if re.search(pattern, f)]
            if hits:
                # From the outermost match: the four callers above it.
                chain = [f for f, _ in s[hits[-1]:hits[-1] + 5]]
                chains[" <- ".join(chain)] += 1
        table(f"callers of /{pattern}/ ({sum(chains.values())} samples)", chains, total, 12)


if __name__ == "__main__":
    main()

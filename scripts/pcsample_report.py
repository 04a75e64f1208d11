#!/usr/bin/env python3
"""Symbolize and aggregate the PC samples written by scripts/pcsample.cc.

    python3 scripts/pcsample_report.py [--by outer|inner|line] [--top N] \
        [--within REGEX] run1.pcs [run2.pcs ...]

Each file holds the objects its process had loaded (load base, address
range, path) and one sampled PC per line; several files (several runs of
one binary) are summed. PCs are resolved per object with
`addr2line -a -f -i -C`, which prints the chain of inlined frames at a PC,
innermost first. A sample is charged to:

  outer  the function the PC lies in (the outermost frame of the chain:
         what a non-inlining profiler would name);
  inner  the innermost inlined function at the PC;
  line   the innermost source line.

--within REGEX keeps only the samples whose outer function matches, so
`--by inner --within <function>` splits one function's samples by what
was inlined into it. Samples in an object without symbols are charged to
"[object name]". Build the sampled binary with -g for inlined frames and
lines.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

ADDRESS_LINE = re.compile(r"^0x[0-9a-f]+$")


def read_samples(path):
    """Return (objects, pcs): objects as (base, start, end, path)."""
    objects, pcs = [], []
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "object":
                base, start, end = (int(x, 16) for x in fields[1:4])
                objects.append((base, start, end, " ".join(fields[4:])))
            elif fields[0] == "samples":
                if len(fields) >= 4 and int(fields[3]) > 0:
                    print(f"{path}: {fields[3]} samples dropped",
                          file=sys.stderr)
            else:
                pcs.append(int(fields[0], 16))
    return objects, pcs


def symbolize(binary, offsets):
    """Map each offset to its inline chain [(function, file:line), ...]."""
    offsets = sorted(offsets)
    if not os.path.isfile(binary):
        return {}
    query = "".join(f"{off:#x}\n" for off in offsets)
    proc = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                          input=query, capture_output=True, text=True)
    if proc.returncode != 0:
        return {}
    chains, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if ADDRESS_LINE.match(lines[i]):
            current = int(lines[i], 16)
            chains[current] = []
            i += 1
            continue
        function = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        chains[current].append((function, where))
        i += 2
    return chains


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--by", choices=("outer", "inner", "line"),
                        default="outer")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--within", type=re.compile, default=None)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    # (object path, offset) -> samples, over every file.
    hits = collections.Counter()
    for path in args.files:
        objects, pcs = read_samples(path)
        for pc in pcs:
            for base, start, end, name in objects:
                if start <= pc < end:
                    hits[(name, pc - base)] += 1
                    break
            else:
                hits[("[unmapped]", 0)] += 1

    by_object = collections.defaultdict(set)
    for name, offset in hits:
        by_object[name].add(offset)
    chains = {name: symbolize(name, offsets)
              for name, offsets in by_object.items()}

    totals = collections.Counter()
    for (name, offset), count in hits.items():
        chain = chains[name].get(offset)
        known = chain and chain[-1][0] != "??"
        if args.within and not (known and args.within.search(chain[-1][0])):
            continue
        if not known:
            key = f"[{os.path.basename(name)}]"
        elif args.by == "outer":
            key = chain[-1][0]
        elif args.by == "inner":
            key = chain[0][0]
        else:
            key = chain[0][1]
        totals[key] += count

    total = sum(totals.values())
    every = sum(hits.values())
    print(f"{total} of {every} samples in {len(args.files)} file(s), "
          f"by {args.by}")
    if total == 0:
        return
    for key, count in totals.most_common(args.top):
        print(f"{100.0 * count / total:6.2f}% {count:7d}  {key}")


if __name__ == "__main__":
    main()

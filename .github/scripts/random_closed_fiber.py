"""Print a closed non-orientable fiber with CROSSCAPS crosscaps and ROWS
random two-sided Z4 cycles, drawn by random.Random(CROSSCAPS).

Usage: python random_closed_fiber.py CROSSCAPS ROWS > doc.pinlef
"""

import random
import sys

crosscaps, count = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(crosscaps)
rows = []
while len(rows) < count:
    row = [rng.randrange(4) for _ in range(crosscaps)]
    if sum(a % 2 for a in row) % 2 == 0:
        rows.append(",".join(map(str, row)))
print("[surface]\nkind = non-orientable")
print(f"crosscaps = {crosscaps}\nboundary = 0\n[cycles]")
print("\n".join(rows))

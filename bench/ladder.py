"""Seeded scenario ladder built from the bundled case study.

Rung k puts k copies of the bundled DRAG/ESAG/EVCS/DDGAG quartet on one
feeder of 1 + 4k buses (bus 1 is the substation, branch j joins bus j to
bus j + 1).  Branches have r = x = 0.01/k p.u. and limits of 20k MW/MVAr,
so the feeder's electrical length and its headroom per copy stay those of
the bundled case.  Each ESAG copy draws its initial charge ``e_init`` from
U[2, 10] MWh with a generator seeded by (seed, k), so the copies are not
symmetric and the same seed always writes the same file.

The program only ever sees the written JSON files.
"""

from __future__ import annotations

import copy
import json
import random

E_INIT_RANGE = (2.0, 10.0)


def ladder_doc(bundled: dict, k: int, seed: int) -> dict:
    """Scenario document for rung ``k``, from the bundled scenario document."""
    if k < 1:
        raise ValueError("rung must be >= 1")
    rng = random.Random(f"ladder:{seed}:{k}")
    doc = copy.deepcopy(bundled)
    quartet = bundled["aggregators"]
    template_bus = bundled["network"]["buses"][0]
    template_branch = bundled["network"]["branches"][0]
    doc["network"]["buses"] = [
        {**copy.deepcopy(template_bus), "id": n} for n in range(1, 4 * k + 2)]
    doc["network"]["branches"] = [
        {**template_branch, "id": j, "from": j, "to": j + 1,
         "r": 0.01 / k, "x": 0.01 / k,
         "pl_max": 20.0 * k, "ql_max": 20.0 * k}
        for j in range(1, 4 * k + 1)]
    aggregators, offers = [], {}
    for c in range(1, k + 1):
        for agg in quartet:
            kind = agg["type"]
            name = f"{kind}-{c}"
            clone = {**copy.deepcopy(agg), "name": name,
                     "node": agg["node"] + 4 * (c - 1)}
            if kind == "esag":
                clone["e_init"] = round(rng.uniform(*E_INIT_RANGE), 6)
            aggregators.append(clone)
            offers[name] = copy.deepcopy(bundled["offers"][agg["name"]])
    doc["aggregators"] = aggregators
    doc["offers"] = offers
    doc["assumptions"] = list(bundled.get("assumptions", ())) + [
        f"benchmark ladder rung {k}, seed {seed}: {k} copies of the bundled "
        f"quartet on a {4 * k + 1}-bus feeder, r = x = 0.01/{k} p.u., "
        f"branch limits {20 * k} MW/MVAr, ESAG e_init ~ U{E_INIT_RANGE}"]
    return doc


def write_ladder(bundled: dict, k: int, seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ladder_doc(bundled, k, seed), fh, indent=2)
        fh.write("\n")

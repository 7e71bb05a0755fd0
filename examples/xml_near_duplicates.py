#!/usr/bin/env python
"""Near-duplicate detection over XML product listings.

The paper's motivating scenario (Section 1): a C2C shopping site models
items as XML documents; the similarity join finds items sold at other
stores — near-duplicates differing by a typo, a missing field, or a
renamed tag.

This example:

1. builds a small catalogue of XML listings, including deliberately
   near-duplicate entries from "different vendors";
2. converts XML to trees with :func:`repro.tree.tree_from_xml` (tags and
   text both become labels, as in the paper's Figure 1);
3. joins the catalogue at several thresholds and reports the duplicate
   clusters;
4. shows the filter statistics that make PartSJ cheaper than the
   brute-force scan.

Run with::

    python examples/xml_near_duplicates.py
"""

from collections import defaultdict

from repro import TreeCollection
from repro.tree.xmlio import tree_from_xml


def listing(vendor: str, title: str, year: str, price: str, tracks: list[str]) -> str:
    track_xml = "".join(f"<track>{t}</track>" for t in tracks)
    return (
        f"<item><vendor>{vendor}</vendor><title>{title}</title>"
        f"<year>{year}</year><price>{price}</price>{track_xml}</item>"
    )


CATALOGUE_XML = [
    # Vendor A and B sell the same album; B has a typo in the year.
    listing("A", "Abbey Road", "1969", "25", ["Come Together", "Something"]),
    listing("B", "Abbey Road", "1996", "25", ["Come Together", "Something"]),
    # Vendor C dropped one track and renamed the price.
    listing("C", "Abbey Road", "1969", "27", ["Come Together"]),
    # A different album entirely.
    listing("A", "Kind of Blue", "1959", "19", ["So What", "Blue in Green"]),
    listing("D", "Kind of Blue", "1959", "19", ["So What", "Blue in Green"]),
    # And something unrelated.
    listing("E", "OK Computer", "1997", "15",
            ["Airbag", "Paranoid Android", "Karma Police"]),
]


def main() -> None:
    trees = [tree_from_xml(xml) for xml in CATALOGUE_XML]
    print(f"catalogue: {len(trees)} listings, "
          f"tree sizes {[t.size for t in trees]}")

    catalogue = TreeCollection.from_trees(trees)  # prepared once, every tau
    for tau in (1, 2, 4):
        result = catalogue.join(tau).run()
        print(f"\n-- tau = {tau}: {len(result.pairs)} near-duplicate pairs --")
        for pair in result.pairs:
            print(f"  listing {pair.i} ~ listing {pair.j} "
                  f"(TED {pair.distance})")
        stats = result.stats
        print(f"  [{stats.candidates} candidates, {stats.ted_calls} TED "
              f"calls out of {len(trees) * (len(trees) - 1) // 2} possible pairs]")

    # Group tau=4 matches into duplicate clusters via union-find (the
    # session serves the tau=4 join again from its result cache).
    result = catalogue.join(4).run()
    parent = list(range(len(trees)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in result.pairs:
        parent[find(pair.i)] = find(pair.j)
    clusters = defaultdict(list)
    for index in range(len(trees)):
        clusters[find(index)].append(index)

    print("\nDuplicate clusters at tau=4:")
    for members in clusters.values():
        if len(members) > 1:
            titles = {CATALOGUE_XML[m].split("<title>")[1].split("<")[0]
                      for m in members}
            print(f"  listings {members}: {sorted(titles)}")


if __name__ == "__main__":
    main()

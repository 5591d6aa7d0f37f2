#!/usr/bin/env python3
"""From raw review rows to the product-rating graph.

Walks the ingestion path on a tiny handmade dataset: parse, dedupe,
per-product stats, then the attributed graph whose nodes are
(product, rating) pairs and whose edges carry co-reviewer counts.
"""

import tempfile
from pathlib import Path

from spamrings.graph import adjacency_sparse, build_graph, node_features, node_id_str
from spamrings.reviews import dedupe, parse_reviews, product_stats

rows = """\
alice,espresso_bar,5,2014-03-01
bob,espresso_bar,5,2014-03-02
carol,espresso_bar,2,2014-03-05
alice,noodle_house,5,2014-03-03
bob,noodle_house,5,2014-03-04
dave,noodle_house,3,2014-02-11
alice,noodle_house,4,2014-01-20
erin,taco_stand,4,2014-05-06
"""

path = Path(tempfile.mkdtemp()) / "reviews.csv"
path.write_text(rows)

table, errors = parse_reviews(path)
print(f"parsed {len(table)} reviews, {len(errors)} malformed rows")

# alice rated noodle_house twice; keep_latest retains the 5 from March
table = dedupe(table)
print(f"after dedupe: {len(table)} reviews")

for product, stats in sorted(product_stats(table).items()):
    print(f"  {product}: avg {stats.avg_rating:.2f} over {stats.review_count} reviews")

# alice and bob both gave espresso_bar AND noodle_house five stars, so the
# two (product, 5) nodes share the co-reviewer pair {alice, bob}
graph = build_graph(table, min_co_review=2)
print(f"\ngraph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
for node in graph.nodes:
    print(f"  node {node_id_str(node)}: reviewers {sorted(node.reviewers)}")
for edge in graph.edges:
    u, v = graph.nodes[edge.u], graph.nodes[edge.v]
    shared = sorted(u.reviewers & v.reviewers)
    print(f"  edge {node_id_str(u)} -- {node_id_str(v)}: {edge.n_co_reviewers} co-reviewers {shared}")

print("\nweighted adjacency:")
print(adjacency_sparse(graph).toarray())
print("\nnode features (one-hot rating, log reviewer count, log degree):")
print(node_features(graph).round(3))

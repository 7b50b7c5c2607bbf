"""The closed label tables of ``strata`` over a grid of configurations.

``table(cfg)`` gathers everything ``strata`` decides from the parameters
alone, without enumerating a member: the space, the member dimension, the
top label and, for every predicted label, its reference dimension, its
Kottwitz-Rapoport prediction, its reachability at k = 1..6 and its closure
set.  ``GRID`` is every configuration with Z t <= 12, Y n <= 10 (both
signs) and ZY t1 <= 12.  ``tests/label_tables.json`` holds the tables as
frozen from an earlier tree; ``python tests/label_tables.py`` prints the
current ones in that format.
"""

import json

from stratakit import strata
from stratakit.strata import ConfigError, StrataConfig, StratumLabel

KS = range(1, 7)


def _configs():
    evens = range(0, 13, 2)
    for t in evens:
        for h in range(0, t + 1, 2):
            yield StrataConfig("Z", 3, t=t, h=h)
    for n in range(11):
        for h in range(0, n + 1, 2):
            for t in range(0, h + 1, 2):
                for eps in (-1, 1):
                    try:
                        yield StrataConfig("Y", 3, n=n, h=h, t=t, eps=eps)
                    except ConfigError:
                        pass  # a maximal even level has one sign
    for t1 in evens:
        for h in range(0, t1 + 1, 2):
            for t2 in range(0, h + 1, 2):
                yield StrataConfig("ZY", 3, t1=t1, h=h, t2=t2)


GRID = list(_configs())


def name(cfg):
    return " ".join(f"{k}={v}" for k, v in cfg.describe().items() if k not in ("p", "e", "k"))


def table(cfg):
    labels = sorted(strata.predicted_index_set(cfg), key=StratumLabel.key)
    return {
        "space": [cfg.space_kind, cfg.space_dim],
        "member_dim": cfg.member_dim,
        "top": strata.top_labels(cfg)[0].key(),
        "labels": {label.key(): [
            strata.reference_dimension(cfg, label),
            strata._kr_fiber_prediction(cfg, label),
            "".join("1" if strata.reachable_at_k(cfg, label, k) else "0" for k in KS),
            sorted(l.key() for l in strata.closure_index_set(cfg, label)),
        ] for label in labels},
    }


def dump() -> str:
    lines = (json.dumps(name(cfg)) + ": " + json.dumps(table(cfg), separators=(",", ":"))
             for cfg in GRID)
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    print(dump(), end="")

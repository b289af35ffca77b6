"""Seeded inputs for the three workloads.

Everything the program sees is built here from the run's ``--seed``: the
Airbnb-like listing columns and the notebook's cell list for ``notebook``,
and the CSV text, intent cycle and edit cycle for the two HTTP workloads.
The benchmark owns these copies so that no later change to the program's
own bench helpers can move the inputs.

Each table is drawn once from a fixed base seed, and ``--seed`` then
shuffles every column on its own.  So every seed gives another table
with the same row count, value sets and cardinalities.  The amount of
work is the same on every seed, and run-to-run spread is not caused by
the data.
"""

from __future__ import annotations

import io
from typing import Any, Callable

import numpy as np

_BASE_SEED = 0


def _shuffled(columns: dict[str, Any], seed: int) -> dict[str, Any]:
    """Each column permuted independently by ``seed``."""
    rng = np.random.default_rng(seed)
    out: dict[str, Any] = {}
    for name, values in columns.items():
        order = rng.permutation(len(values))
        if isinstance(values, np.ndarray):
            out[name] = values[order]
        else:
            out[name] = [values[i] for i in order]
    return out


# ----------------------------------------------------------------------
# notebook: an Airbnb-style exploration (Table 3: 14 print-df,
# 7 print-series and 17 code cells)
# ----------------------------------------------------------------------
BOROUGHS = ["Manhattan", "Brooklyn", "Queens", "Bronx", "Staten Island"]
ROOM_TYPES = ["Entire home/apt", "Private room", "Shared room"]
_WORDS = ["Cozy", "Sunny", "Modern", "Quiet", "Spacious", "Charming",
          "Bright", "Loft", "Studio", "Garden", "Park", "River"]


def listing_columns(rows: int, seed: int) -> dict[str, Any]:
    """Twelve Airbnb-like columns: ids, text, geography, skewed measures."""
    rng = np.random.default_rng(_BASE_SEED)
    borough = rng.choice(len(BOROUGHS), size=rows, p=[0.44, 0.41, 0.11, 0.03, 0.01])
    hood = borough * 40 + rng.integers(0, 40, size=rows)
    words = rng.integers(0, len(_WORDS), size=(rows, 2))
    reviews = np.where(rng.random(rows) < 0.2, 0, rng.negative_binomial(1, 0.04, rows))
    return _shuffled({
        "id": np.arange(1, rows + 1, dtype=np.int64),
        "name": [f"{_WORDS[a]} {_WORDS[b]} {i % 977}" for i, (a, b) in enumerate(words)],
        "host_id": rng.integers(1_000, 300_000, size=rows),
        "host_name": [f"host{h}" for h in rng.integers(0, 5_000, size=rows)],
        "neighbourhood_group": [BOROUGHS[i] for i in borough],
        "neighbourhood": [f"{BOROUGHS[i // 40]}-{i % 40:03d}" for i in hood],
        "latitude": np.round(40.5 + rng.random(rows) * 0.4, 5),
        "longitude": np.round(-74.2 + rng.random(rows) * 0.5, 5),
        "room_type": [ROOM_TYPES[i] for i in rng.choice(3, rows, p=[0.52, 0.45, 0.03])],
        "price": np.round(rng.lognormal(4.7, 0.7, rows), 0),
        "minimum_nights": rng.choice(
            [1, 2, 3, 4, 5, 7, 14, 30], size=rows,
            p=[0.3, 0.25, 0.15, 0.08, 0.07, 0.06, 0.04, 0.05],
        ),
        "number_of_reviews": reviews.astype(np.int64),
    }, seed)


Cell = tuple[str, str, Callable[[dict[str, Any]], Any]]

#: Code cells that only inspect the frame.  The other eleven code cells
#: change it or derive a new one: those are the notebook's writes.
INSPECT_CELLS = frozenset(
    {"shape", "dtypes", "non-null counts", "nunique", "corr", "price stats"}
)


def notebook_cells(lux: Any, qcut: Callable[..., Any]) -> list[Cell]:
    """``(label, kind, body)`` per cell; kind is print_df, print_series or code.

    ``lux`` is the program's ``LuxDataFrame`` class and ``qcut`` its binning
    function, passed in so this module imports nothing from the program.
    A body returns the value the cell displays (print cells) or anything.
    """

    def setcol(name: str, fn: Callable[[Any], Any]) -> Callable[[dict], Any]:
        return lambda env: env["df"].__setitem__(name, fn(env["df"]))

    return [
        ("load", "code", lambda env: env.update(df=lux(dict(env["columns"])))),
        ("peek", "print_df", lambda env: env["df"]),
        ("head", "print_df", lambda env: env["df"].head(10)),
        ("shape", "code", lambda env: env["df"].shape),
        ("dtypes", "code", lambda env: env["df"].dtypes),
        ("describe", "print_df", lambda env: env["df"].describe()),
        ("price", "print_series", lambda env: env["df"]["price"]),
        ("room counts", "print_series", lambda env: env["df"]["room_type"].value_counts()),
        ("non-null counts", "code", lambda env: env["df"].count()),
        ("nunique", "code", lambda env: env["df"].nunique()),
        ("drop name", "code", lambda env: env["df"].drop("name", inplace=True)),
        ("after drop", "print_df", lambda env: env["df"]),
        ("fill nulls", "code", lambda env: env["df"].fillna(0, inplace=True)),
        ("rename", "code", lambda env: env["df"].rename(
            columns={"neighbourhood_group": "borough"}, inplace=True)),
        ("after rename", "print_df", lambda env: env["df"]),
        ("log price", "code", setcol("log_price", lambda df: (df["price"] + 1.0).map(np.log))),
        ("log price view", "print_series", lambda env: env["df"]["log_price"]),
        ("price tier", "code", setcol(
            "price_tier", lambda df: qcut(df["price"], 3, labels=["Budget", "Mid", "Lux"]))),
        ("tier counts", "print_series", lambda env: env["df"]["price_tier"].value_counts()),
        ("after binning", "print_df", lambda env: env["df"]),
        ("manhattan", "code", lambda env: env.update(
            manhattan=env["df"][env["df"]["borough"] == "Manhattan"])),
        ("manhattan view", "print_df", lambda env: env["manhattan"]),
        ("cheap", "code", lambda env: env.update(cheap=env["df"][env["df"]["price"] < 100])),
        ("cheap view", "print_df", lambda env: env["cheap"]),
        ("cheap head", "print_df", lambda env: env["cheap"].head()),
        ("mean by borough", "print_df", lambda env: env["df"].groupby("borough").mean()),
        ("size by room", "print_series", lambda env: env["df"].groupby("room_type").size()),
        ("pivot", "print_df", lambda env: env["df"].pivot_table(
            index="borough", columns="room_type", values="price", aggfunc="mean")),
        ("agg by tier", "print_df", lambda env: env["df"].groupby("price_tier").agg(
            {"price": "mean", "number_of_reviews": "mean"})),
        ("corr", "code", lambda env: env["df"][
            ["price", "log_price", "minimum_nights", "number_of_reviews"]].corr()),
        ("price stats", "code", lambda env: (env["df"]["price"].mean(), env["df"]["price"].std())),
        ("reviews", "print_series", lambda env: env["df"]["number_of_reviews"]),
        ("zscore", "code", setcol(
            "price_z", lambda df: (df["price"] - df["price"].mean()) / df["price"].std())),
        ("is entire", "code", setcol(
            "is_entire", lambda df: (df["room_type"] == "Entire home/apt").astype("int64"))),
        ("features", "print_df", lambda env: env["df"][["price_z", "is_entire", "minimum_nights"]]),
        ("train split", "code", lambda env: env.update(
            train=env["df"].sample(frac=0.8, random_state=1))),
        ("train view", "print_df", lambda env: env["train"]),
        ("top prices", "print_series", lambda env: env["df"]["price"].sort_values().tail(20)),
    ]


# ----------------------------------------------------------------------
# cold_read / edit_read: the shared-scan shape, 6 measures x 3 dimensions
# ----------------------------------------------------------------------
MEASURES = [f"q{i}" for i in range(6)]
DIMENSIONS = {"d0": 6, "d1": 12, "d2": 24}

#: One cold_read cycle: five intents, the last one cleared.
INTENT_CYCLE: list[list[str]] = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]

#: One edit_read cycle: each edit reverses one column's values.
EDIT_CYCLE = ["d0", "q0", "d1", "q1", "d2"]


def measure_columns(rows: int, seed: int) -> dict[str, list[Any]]:
    """Six normal measures and three nominal dimensions, as Python lists."""
    rng = np.random.default_rng(_BASE_SEED)
    columns: dict[str, list[Any]] = {
        name: rng.normal(0.0, 1.0, rows).tolist() for name in MEASURES
    }
    for name, card in DIMENSIONS.items():
        columns[name] = [f"v{i % card}" for i in range(rows)]
    return _shuffled(columns, seed)


def to_csv(columns: dict[str, list[Any]]) -> str:
    """CSV text with floats written by ``repr``, so they parse back exactly."""
    out = io.StringIO()
    names = list(columns)
    out.write(",".join(names) + "\n")
    for row in zip(*(columns[n] for n in names)):
        out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        out.write("\n")
    return out.getvalue()

"""Visualization layer: Vega-Lite-style specs with swappable renderers.

Stands in for Altair/Vega-Lite in the paper's stack.  A :class:`VisSpec`
holds mark + encodings + processed data (a :class:`ColumnTable`);
renderers turn it into Vega-Lite JSON, terminal unicode charts, a
standalone HTML widget, or exported Altair/matplotlib source code.
"""

from .ascii import render_ascii
from .code_export import to_altair_code, to_matplotlib_code
from .encoding import CHANNELS, FIELD_TYPES, Encoding
from .html import render_widget
from .marks import MARKS, infer_mark
from .report import render_report
from .spec import VisSpec
from .table import ColumnTable
from .vegalite import to_vegalite

__all__ = [
    "CHANNELS",
    "ColumnTable",
    "Encoding",
    "FIELD_TYPES",
    "MARKS",
    "VisSpec",
    "infer_mark",
    "render_ascii",
    "render_report",
    "render_widget",
    "to_altair_code",
    "to_matplotlib_code",
    "to_vegalite",
]

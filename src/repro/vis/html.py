"""Standalone HTML widget output.

Replaces the ipywidgets frontend: :func:`render_widget` produces a single
HTML file with the pandas-style table view, a toggle, and one tab per
action whose charts are embedded as Vega-Lite specs (rendered by vega-embed
when opened with network access, with an inline JSON fallback otherwise).
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Mapping, Sequence

from .spec import VisSpec
from .vegalite import to_vegalite

__all__ = ["render_widget", "script_json"]

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<script src="https://cdn.jsdelivr.net/npm/vega@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>
<style>
body {{ font-family: sans-serif; margin: 1.5em; }}
.tabs button {{ padding: 6px 14px; border: none; background: #eee; cursor: pointer; }}
.tabs button.active {{ background: #4c78a8; color: white; }}
.panel {{ display: none; padding: 10px 0; }}
.panel.active {{ display: flex; flex-wrap: wrap; gap: 16px; }}
.chart {{ border: 1px solid #ddd; padding: 6px; }}
table.df {{ border-collapse: collapse; font-size: 13px; }}
table.df td, table.df th {{ border: 1px solid #ccc; padding: 3px 8px; }}
#toggle {{ margin: 10px 0; padding: 6px 14px; cursor: pointer; }}
</style>
</head>
<body>
<h2>{title}</h2>
<button id="toggle" onclick="toggleView()">Toggle Pandas/Lux</button>
<div id="table-view">{table}</div>
<div id="lux-view" style="display:none">
  <div class="tabs">{tab_buttons}</div>
  {panels}
</div>
<script>
function toggleView() {{
  const t = document.getElementById('table-view');
  const l = document.getElementById('lux-view');
  const showLux = l.style.display === 'none';
  l.style.display = showLux ? 'block' : 'none';
  t.style.display = showLux ? 'none' : 'block';
}}
function showTab(name) {{
  document.querySelectorAll('.panel').forEach(p => p.classList.remove('active'));
  document.querySelectorAll('.tabs button').forEach(b => b.classList.remove('active'));
  document.getElementById('panel-' + name).classList.add('active');
  document.getElementById('tab-' + name).classList.add('active');
}}
const SPECS = {specs_json};
for (const [id, spec] of Object.entries(SPECS)) {{
  if (window.vegaEmbed) {{
    vegaEmbed('#' + id, spec, {{actions: false}}).catch(() => {{}});
  }} else {{
    document.getElementById(id).textContent = JSON.stringify(spec, null, 1);
  }}
}}
{activate_first}
</script>
</body>
</html>
"""


def script_json(value: Any) -> str:
    """``json.dumps(value)``, safe to embed inside a ``<script>`` block.

    ``<``, ``>`` and ``&`` can only occur inside JSON strings; written as
    ``\\u003c``, ``\\u003e`` and ``\\u0026`` they cannot close the block
    or open a comment, and the parsed values stay the same.
    """
    text = json.dumps(value)
    return text.replace("<", "\\u003c").replace(">", "\\u003e").replace("&", "\\u0026")


def _table_html(records: Sequence[Mapping[str, Any]], columns: Sequence[str]) -> str:
    head = "".join(f"<th>{_html.escape(str(c))}</th>" for c in columns)
    body_rows = []
    for row in records:
        cells = "".join(
            f"<td>{_html.escape('' if row.get(c) is None else str(row.get(c)))}</td>"
            for c in columns
        )
        body_rows.append(f"<tr>{cells}</tr>")
    return (
        f'<table class="df"><thead><tr>{head}</tr></thead>'
        f"<tbody>{''.join(body_rows)}</tbody></table>"
    )


def render_widget(
    actions: Mapping[str, Sequence[VisSpec]],
    table_records: Sequence[Mapping[str, Any]] = (),
    table_columns: Sequence[str] = (),
    title: str = "Lux widget",
) -> str:
    """Build the full widget HTML for a dict of action name -> charts."""
    tab_buttons = []
    panels = []
    specs: dict[str, dict[str, Any]] = {}
    for tab_i, (name, charts) in enumerate(actions.items()):
        safe = "".join(ch if ch.isalnum() else "-" for ch in name)
        tab_buttons.append(
            f'<button id="tab-{safe}" onclick="showTab(\'{safe}\')">'
            f"{_html.escape(name)} ({len(charts)})</button>"
        )
        divs = []
        for j, chart in enumerate(charts):
            div_id = f"vis-{safe}-{j}"
            specs[div_id] = to_vegalite(chart)
            divs.append(f'<div class="chart" id="{div_id}"></div>')
        panels.append(f'<div class="panel" id="panel-{safe}">{"".join(divs)}</div>')

    first = next(iter(actions), None)
    first_safe = (
        "".join(ch if ch.isalnum() else "-" for ch in first) if first else None
    )
    activate = f"showTab('{first_safe}');" if first_safe else ""
    return _PAGE.format(
        title=_html.escape(title),
        table=_table_html(table_records, table_columns),
        tab_buttons="".join(tab_buttons),
        panels="".join(panels),
        specs_json=script_json(specs),
        activate_first=activate,
    )

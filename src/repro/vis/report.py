"""Static HTML reports — the §10.3 "Integration with Downstream Reports".

The paper found per-chart code export unsustainable once users wanted to
share whole dashboards, motivating one-shot static exports.  This module
renders one or many LuxDataFrames into a single self-contained HTML report
(all actions, all charts, plus the data summary), suitable for sharing
with stakeholders who have no Python setup.
"""

from __future__ import annotations

import html as _html
from typing import Any, Mapping

from .html import script_json
from .vegalite import to_vegalite

__all__ = ["render_report"]

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<script src="https://cdn.jsdelivr.net/npm/vega@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>
<script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>
<style>
body {{ font-family: Georgia, serif; max-width: 1080px; margin: 2em auto; }}
h1 {{ border-bottom: 3px solid #4c78a8; padding-bottom: 6px; }}
h2 {{ color: #4c78a8; margin-top: 1.6em; }}
h3 {{ margin-bottom: 4px; }}
.charts {{ display: flex; flex-wrap: wrap; gap: 18px; }}
.chart {{ border: 1px solid #e0e0e0; border-radius: 4px; padding: 8px; }}
.meta {{ font-size: 13px; color: #555; }}
table.summary {{ border-collapse: collapse; font-size: 13px; margin: 8px 0; }}
table.summary td, table.summary th {{ border: 1px solid #ccc; padding: 3px 9px; }}
</style>
</head>
<body>
<h1>{title}</h1>
{sections}
<script>
const SPECS = {specs_json};
for (const [id, spec] of Object.entries(SPECS)) {{
  if (window.vegaEmbed) {{
    vegaEmbed('#' + id, spec, {{actions: false}}).catch(() => {{}});
  }} else {{
    const el = document.getElementById(id);
    if (el) el.textContent = JSON.stringify(spec, null, 1);
  }}
}}
</script>
</body>
</html>
"""


def _summary_table(frame: Any) -> str:
    rows = []
    meta = frame.metadata
    for attr in meta:
        rows.append(
            "<tr>"
            f"<td>{_html.escape(attr.name)}</td>"
            f"<td>{attr.data_type}</td>"
            f"<td>{attr.cardinality}</td>"
            f"<td>{attr.null_count}</td>"
            "</tr>"
        )
    return (
        '<table class="summary"><thead><tr>'
        "<th>attribute</th><th>type</th><th>cardinality</th><th>missing</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def render_report(
    frames: Mapping[str, Any],
    title: str = "Lux report",
    charts_per_action: int = 4,
) -> str:
    """Render a named collection of LuxDataFrames into one HTML report."""
    sections: list[str] = []
    specs: dict[str, dict[str, Any]] = {}
    for f_i, (name, frame) in enumerate(frames.items()):
        parts = [f"<h2>{_html.escape(name)}</h2>"]
        parts.append(
            f'<p class="meta">{frame.shape[0]} rows × {frame.shape[1]} '
            "columns</p>"
        )
        parts.append(_summary_table(frame))
        recs = frame.recommendations
        for action in recs.keys():
            vislist = recs[action]
            if not len(vislist):
                continue
            parts.append(
                f"<h3>{_html.escape(action)}</h3>"
                f'<p class="meta">{len(vislist)} recommendation(s)</p>'
            )
            divs = []
            for v_i, vis in enumerate(list(vislist)[:charts_per_action]):
                if vis.spec is None:
                    continue
                div_id = f"report-{f_i}-{_slug(action)}-{v_i}"
                specs[div_id] = to_vegalite(vis.spec)
                divs.append(f'<div class="chart" id="{div_id}"></div>')
            parts.append(f'<div class="charts">{"".join(divs)}</div>')
        sections.append("\n".join(parts))
    return _PAGE.format(
        title=_html.escape(title),
        sections="\n".join(sections),
        specs_json=script_json(specs),
    )


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in text)

"""Self-contained HTML dashboard for run logs.

``repro report`` renders everything the other ``repro.obs`` modules
capture — run stats, span trees, the sampling profiler's flamegraph
and phase table, peak RSS and payload bytes, metric quantiles — into **one
static HTML file**: inline CSS, no JavaScript, no network fetches,
nothing but the standard library. The file is the artifact a CI job
uploads and a reader opens locally.

Rendering choices follow the repo's charting conventions: a single
accent hue for single-series marks (light/dark variants selected via
``prefers-color-scheme``), text always in text colors (marks carry the
color), tables with tabular numerals for everything that must align.

The flamegraph is an *icicle* layout built from the profiler's
collapsed stacks: nested flex rows whose widths are proportional to
sample counts — a plain-HTML rendering that needs no script; hover
detail rides on ``title`` tooltips.
"""

from __future__ import annotations

import html
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = ["render_dashboard", "write_dashboard"]

#: Children narrower than this share of the root are folded (with
#: their siblings) into one remainder cell to bound the DOM size.
_MIN_FLAME_SHARE = 0.004
_MAX_FLAME_DEPTH = 30

#: Depth-cycled fills for flame cells: steps 250→550 of the accent
#: ramp (one hue, light→dark — magnitude is *depth*, not category).
_FLAME_RAMP = ("#86b6ef", "#6da7ec", "#5598e7", "#3987e5", "#2a78d6", "#1c5cab")

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-1: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-1: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page); color: var(--text-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--text-2);
  text-transform: uppercase; letter-spacing: 0.04em; }
.sub { color: var(--text-2); margin: 0 0 20px; }
section.card { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 14px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 6px 0; }
.tile { border: 1px solid var(--border); border-radius: 6px;
  padding: 8px 14px; min-width: 110px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%; margin: 6px 0; }
th { text-align: left; color: var(--text-2); font-weight: 500;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
  vertical-align: middle; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.spans { font-family: ui-monospace, monospace; font-size: 12px;
  white-space: pre; overflow-x: auto; color: var(--text-2); margin: 6px 0; }
.flame { border: 1px solid var(--border); border-radius: 6px;
  overflow: hidden; margin: 6px 0; }
.fnode { min-width: 0; }
.fcell { height: 18px; line-height: 18px; font-size: 11px; color: #0b0b0b;
  padding: 0 3px; overflow: hidden; white-space: nowrap;
  border-right: 2px solid var(--surface-1);
  border-bottom: 2px solid var(--surface-1); }
.frow { display: flex; }
.footer { color: var(--muted); font-size: 12px; margin-top: 24px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _esc(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:.3g}"


def _fmt_bytes(n: Any) -> str:
    if not isinstance(n, (int, float)):
        return _esc(n)
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:,.1f} GiB"


# ----------------------------------------------------------------------
# flamegraph (icicle)
# ----------------------------------------------------------------------
def _stack_tree(stacks: dict[str, int]) -> dict[str, Any]:
    root: dict[str, Any] = {"name": "all", "value": 0, "children": {}}
    for stack, count in stacks.items():
        root["value"] += count
        node = root
        for frame in stack.split(";"):
            child = node["children"].get(frame)
            if child is None:
                child = node["children"][frame] = {
                    "name": frame,
                    "value": 0,
                    "children": {},
                }
            child["value"] += count
            node = child
    return root


def _flame_node(node: dict[str, Any], total: int, depth: int) -> str:
    share = node["value"] / total if total else 0.0
    color = _FLAME_RAMP[depth % len(_FLAME_RAMP)]
    title = f"{node['name']} — {node['value']} samples ({share * 100:.1f}%)"
    cell = (
        f'<div class="fcell" style="background:{color}" '
        f'title="{_esc(title)}">{_esc(node["name"])}</div>'
    )
    if depth >= _MAX_FLAME_DEPTH or not node["children"]:
        return f'<div class="fnode">{cell}</div>'
    children = sorted(
        node["children"].values(), key=lambda c: (-c["value"], c["name"])
    )
    parts: list[str] = []
    folded = 0
    for child in children:
        if child["value"] / total < _MIN_FLAME_SHARE:
            folded += child["value"]
            continue
        width = child["value"] / node["value"] * 100.0
        parts.append(
            f'<div class="fnode" style="width:{width:.2f}%">'
            + _flame_node(child, total, depth + 1)
            + "</div>"
        )
    if folded:
        width = folded / node["value"] * 100.0
        parts.append(
            f'<div class="fnode" style="width:{width:.2f}%">'
            f'<div class="fcell" style="background:{_FLAME_RAMP[(depth + 1) % len(_FLAME_RAMP)]}" '
            f'title="{folded} samples in folded frames">…</div></div>'
        )
    return f'{cell}<div class="frow">{"".join(parts)}</div>'


def _flamegraph(stacks: dict[str, int]) -> str:
    if not stacks:
        return '<p class="sub">No samples collected.</p>'
    tree = _stack_tree(stacks)
    return f'<div class="flame">{_flame_node(tree, tree["value"], 0)}</div>'


# ----------------------------------------------------------------------
# run sections
# ----------------------------------------------------------------------
def _span_lines(spans: list[dict[str, Any]], indent: int = 0) -> list[str]:
    lines = []
    for span in spans:
        attrs = span.get("attrs", {})
        # Spans of run logs older than v1.8.0 carry ``mem_*`` figures.
        shown = " ".join(
            f"{k}={v}" for k, v in attrs.items() if not k.startswith("mem_")
        )
        lines.append(
            "  " * indent
            + f"{span.get('name', '?'):<24} "
            + f"{float(span.get('seconds', 0.0)) * 1e3:10.3f} ms"
            + (f"   [{shown}]" if shown else "")
        )
        lines.extend(_span_lines(span.get("children", []), indent + 1))
    return lines


def _phase_table_html(rows: list[dict[str, Any]]) -> str:
    body = "".join(
        f"<tr><td>{_esc(r['phase'])}</td>"
        f"<td class=num>{float(r['self_seconds']) * 1e3:,.3f}</td>"
        f"<td class=num>{int(r['samples']):,}</td>"
        f"<td class=num>{float(r['sample_share']) * 100:.1f}%</td></tr>"
        for r in rows
    )
    return (
        "<table><thead><tr><th>phase</th><th class=num>self ms</th>"
        "<th class=num>samples</th><th class=num>share</th></tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def _resources_html(res: dict[str, Any]) -> str:
    parts = ['<div class="tiles">']
    rss = res.get("max_rss_bytes")
    if rss is not None:
        parts.append(
            f'<div class="tile"><div class="v">{_fmt_bytes(rss)}</div>'
            '<div class="k">max RSS</div></div>'
        )
    payload = res.get("payload") or {}
    for key, label in (
        ("stored_bytes", "payload stored"),
        ("decoded_bytes", "payload decoded"),
    ):
        if key in payload:
            parts.append(
                f'<div class="tile"><div class="v">{_fmt_bytes(payload[key])}</div>'
                f'<div class="k">{_esc(label)}</div></div>'
            )
    parts.append("</div>")
    return "".join(parts)


def _quantile_rows(metrics: dict[str, Any]) -> str:
    rows = []
    for hist in metrics.get("histograms", []):
        q = hist.get("quantiles")
        if not q:
            continue
        labels = ",".join(f"{k}={v}" for k, v in hist.get("labels", {}).items())
        name = hist.get("name", "?") + (f"{{{labels}}}" if labels else "")
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td class=num>{int(hist.get('count', 0)):,}</td>"
            f"<td class=num>{_fmt(q.get('p50'))}</td>"
            f"<td class=num>{_fmt(q.get('p90'))}</td>"
            f"<td class=num>{_fmt(q.get('p99'))}</td></tr>"
        )
    if not rows:
        return ""
    return (
        "<h3>Histogram quantiles</h3>"
        "<table><thead><tr><th>histogram</th><th class=num>count</th>"
        "<th class=num>p50</th><th class=num>p90</th><th class=num>p99</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _run_section(record: dict[str, Any], index: int) -> str:
    stats = record.get("stats", {})
    parts = [
        '<section class="card">',
        f"<h2>Run {index + 1} — {_esc(record.get('kind', '?'))} / "
        f"{_esc(record.get('method', '?'))}</h2>",
        '<div class="tiles">',
    ]
    for key, label in (
        ("pairs", "candidate pairs"),
        ("resolved_if", "IF-resolved"),
        ("refined", "refined"),
        ("filter_seconds", "filter s"),
        ("refine_seconds", "refine s"),
    ):
        if key in stats:
            parts.append(
                f'<div class="tile"><div class="v">{_fmt(stats[key])}</div>'
                f'<div class="k">{_esc(label)}</div></div>'
            )
    parts.append("</div>")

    spans = record.get("spans", [])
    if spans:
        parts.append("<h3>Span tree</h3>")
        parts.append(f'<div class="spans">{_esc(chr(10).join(_span_lines(spans)))}</div>')

    profile = record.get("profile")
    if profile:
        parts.append(
            f"<h3>Profile — {int(profile.get('samples', 0)):,} samples, "
            f"backend {_esc(profile.get('backend', '?'))}, interval "
            f"{_fmt(profile.get('interval', 0))}s</h3>"
        )
        rows = profile.get("phase_table", [])
        if rows:
            parts.append(_phase_table_html(rows))
        parts.append("<h3>Flamegraph</h3>")
        parts.append(_flamegraph(profile.get("stacks", {})))

    resources = record.get("resources")
    if resources:
        parts.append("<h3>Resources</h3>")
        parts.append(_resources_html(resources))

    metrics = record.get("metrics")
    if metrics:
        parts.append(_quantile_rows(metrics))

    parts.append("</section>")
    return "".join(parts)


# ----------------------------------------------------------------------
# page
# ----------------------------------------------------------------------
def render_dashboard(
    runs: list[dict[str, Any]],
    title: str = "repro observability report",
    generated: str | None = None,
) -> str:
    """Render run records into one static HTML page."""
    if generated is None:
        generated = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
    body = [f"<h1>{_esc(title)}</h1>"]
    sub = f"Generated {generated} · {len(runs)} run(s)"
    body.append(f'<p class="sub">{_esc(sub)}</p>')
    for i, record in enumerate(runs):
        body.append(_run_section(record, i))
    if not runs:
        body.append('<section class="card"><p class="sub">Nothing to report: '
                    "no run records.</p></section>")
    body.append(
        '<p class="footer">Self-contained report — no scripts, no network. '
        "Rendered by repro.obs.dashboard.</p>"
    )
    return (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<style>{_CSS}</style></head>"
        f"<body><main>{''.join(body)}</main></body></html>"
    )


def write_dashboard(
    path: str | Path,
    runs: list[dict[str, Any]],
    title: str = "repro observability report",
) -> Path:
    """Render and write the dashboard; returns the written path."""
    path = Path(path)
    path.write_text(render_dashboard(runs, title=title), encoding="utf-8")
    return path

"""Minimal SVG heatmaps for solved tables.

Two renderers share one grid layout: a continuous map for the value
surface and a categorical map for the policy. Both emit self-contained
SVG strings with deterministic formatting, so repeated runs produce
byte-identical files.
"""

from .actions import Action

CELL = 16
MARGIN_LEFT = 56
MARGIN_TOP = 34
MARGIN_BOTTOM = 42
MARGIN_RIGHT = 96

# dark-blue -> teal -> yellow ramp, perceptually ordered
_RAMP = [
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
]

ACTION_COLORS = {
    Action.WAIT: "#bdbdbd",
    Action.SKIP: "#e6a23c",
    Action.REST: "#8e6bb5",
    Action.NORMAL: "#4878b8",
    Action.HIGH: "#c5443c",
}

ACTION_LABELS = {
    Action.WAIT: "wait",
    Action.SKIP: "skip",
    Action.REST: "rest",
    Action.NORMAL: "normal",
    Action.HIGH: "high",
}


def _ramp_color(t):
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_RAMP, _RAMP[1:]):
        if t <= t1:
            frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + frac * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _RAMP[-1][1]


def _grid_geometry(n_q, n_cog):
    width = MARGIN_LEFT + n_cog * CELL + MARGIN_RIGHT
    height = MARGIN_TOP + n_q * CELL + MARGIN_BOTTOM
    return width, height


def _cell_origin(q, cog, n_q):
    # queue length grows upward from the bottom edge
    x = MARGIN_LEFT + cog * CELL
    y = MARGIN_TOP + (n_q - 1 - q) * CELL
    return x, y


def _header(width, height, title):
    # by hand: xml.sax.saxutils imports urllib.request, MBs of RSS per run
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN_LEFT}" y="20" font-family="sans-serif" '
        f'font-size="13" font-weight="bold">{title}</text>',
    ]


def _axes(parts, n_q, n_cog, star_index):
    bottom = MARGIN_TOP + n_q * CELL
    x_step = max(1, n_cog // 6)
    for cog in range(0, n_cog, x_step):
        x = MARGIN_LEFT + cog * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{bottom + 14}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{cog}</text>'
        )
    y_step = max(1, n_q // 8)
    for q in range(0, n_q, y_step):
        _, y = _cell_origin(q, 0, n_q)
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + CELL - 4}" '
            f'font-family="sans-serif" font-size="10" '
            f'text-anchor="end">{q}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + n_cog * CELL // 2}" y="{bottom + 30}" '
        f'font-family="sans-serif" font-size="11" text-anchor="middle">'
        f'cognitive level index (rest at {star_index})</text>'
    )
    mid_y = MARGIN_TOP + n_q * CELL // 2
    parts.append(
        f'<text x="14" y="{mid_y}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 14 {mid_y})">'
        f"queue length</text>"
    )
    # tick the resting level
    x_star = MARGIN_LEFT + star_index * CELL + CELL // 2
    parts.append(
        f'<line x1="{x_star}" y1="{MARGIN_TOP - 4}" x2="{x_star}" '
        f'y2="{MARGIN_TOP}" stroke="black" stroke-width="1.5"/>'
    )


def value_heatmap(values, star_index, title="value surface"):
    """Render a (queue x cognitive) value table as an SVG heatmap."""
    n_q, n_cog = values.shape
    width, height = _grid_geometry(n_q, n_cog)
    lo = float(min(min(row) for row in values.tolist()))
    hi = float(max(max(row) for row in values.tolist()))
    span = hi - lo
    parts = _header(width, height, title)
    for q in range(n_q):
        for cog in range(n_cog):
            t = 0.5 if span == 0 else (float(values[q, cog]) - lo) / span
            x, y = _cell_origin(q, cog, n_q)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_ramp_color(t)}"/>'
            )
    _axes(parts, n_q, n_cog, star_index)
    # colorbar
    bar_x = MARGIN_LEFT + n_cog * CELL + 18
    bar_h = n_q * CELL
    steps = 24
    for i in range(steps):
        t = 1.0 - i / (steps - 1)
        y = MARGIN_TOP + round(i * bar_h / steps)
        h = round((i + 1) * bar_h / steps) - round(i * bar_h / steps)
        parts.append(
            f'<rect x="{bar_x}" y="{y}" width="12" height="{h}" '
            f'fill="{_ramp_color(t)}"/>'
        )
    for frac, value in [(0.0, hi), (1.0, lo)]:
        y = MARGIN_TOP + round(frac * bar_h)
        parts.append(
            f'<text x="{bar_x + 16}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="10">{value:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def policy_heatmap(policy, star_index, title="policy"):
    """Render an action-symbol table as a categorical SVG heatmap."""
    n_q, n_cog = policy.shape
    width, height = _grid_geometry(n_q, n_cog)
    parts = _header(width, height, title)
    for q in range(n_q):
        for cog in range(n_cog):
            color = ACTION_COLORS[Action(str(policy[q, cog]))]
            x, y = _cell_origin(q, cog, n_q)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{color}" stroke="white" stroke-width="0.5"/>'
            )
    _axes(parts, n_q, n_cog, star_index)
    legend_x = MARGIN_LEFT + n_cog * CELL + 14
    for i, action in enumerate(ACTION_COLORS):
        y = MARGIN_TOP + i * 20
        parts.append(
            f'<rect x="{legend_x}" y="{y}" width="14" height="14" '
            f'fill="{ACTION_COLORS[action]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 19}" y="{y + 11}" '
            f'font-family="sans-serif" font-size="11">'
            f"{action.value} {ACTION_LABELS[action]}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
